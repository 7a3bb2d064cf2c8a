#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/main.exe with dune
(build output goes to stderr), runs it with the same arguments and exits
with its code. The last line of standard output is the result JSON.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: dune-project or lib/ missing; run from the repository root\n")
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return 1
        exe = os.path.join("_build", "default", "perfbench", "main.exe")
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: timed out: %s\n" % " ".join(e.cmd))
        return 1
    except OSError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
