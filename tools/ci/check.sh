#!/bin/sh
# Canonical tier-1 gate. Everything a change must pass before it lands.
#
# Usage: tools/ci/check.sh [stage]
#
#   build     dune build — the whole tree compiles (lib, bench,
#             examples, tools)
#   test      dune runtest — unit/property/integration suites, plus
#             @lint (dk-analyze: one parse per source, four rule
#             families — lint token rules, verify typestate/dataflow,
#             shard shard-safety/determinism, hot hot-path cost — and
#             one allowlist whose stale entries fail the run) and the
#             bench smoke run
#   sanitize  DK_SANITIZE=1 dune build @sanitize — exactly the suites
#             that read DK_SANITIZE (canaries, poison-on-free,
#             UAF/double-free detection, leak sweeps, token audit);
#             suites that never consult the sanitizer are not re-run
#   lint      dune build @lint — the dk-analyze source analysis on
#             its own (it also runs as part of 'test'); the multi-shard
#             datapath and the ~1000-cycle datapath budget are gated
#             on it staying clean
#   fault     dune build @fault — the fault-injection scenario suite,
#             normal then sanitized; export DK_FAULT_CI=1 to widen the
#             every-plan matrix to multiple seeds (the CI matrix job
#             does)
#   scenario  dune build @scenario — the E15 open-loop scenario
#             harness at smoke scale (10^4 connections, seconds of
#             host time): determinism, open-loop invariant, overload
#             shedding/bounded-memory checks, plus one `demi scenario
#             --all --smoke` sweep through the CLI
#   offload   dune build @offload — the deep-NIC-offload suite (device
#             pipeline/table units and properties, device==CPU-fallback
#             equality, cross-traffic isolation, no-stale-reads under
#             fault plans), normal then DK_SANITIZE=1
#   bench     tools/ci/bench_diff.sh — regenerate the E1-E16 bench
#             tables and fail on >25% regression against the committed
#             baselines (virtual-time columns at DK_BENCH_MAX_RATIO,
#             latency percentiles at DK_BENCH_PCTL_MAX_RATIO)
#   perf      tools/ci/perf_gate.py — run the repository benchmark
#             (perfbench, all four workloads, seed 1, 1 s each) and
#             fail when minor words/op, peak heap or any virtual-time
#             metric is worse than tools/ci/baselines/perfbench-seed1.json
#             by more than its BENCHMARK.json bound; wall-clock metrics
#             are printed, not gated
#   all       build + test + scenario + offload + sanitize, plus
#             fault when DK_FAULT_CI is set (the source analysis runs
#             once, inside test)
#
# Run from anywhere; exits nonzero on the first failure.

set -eu

cd "$(dirname "$0")/../.."

stage="${1:-all}"

run_build() {
  echo "== [build] dune build"
  dune build
}

run_test() {
  echo "== [test] dune runtest (includes @lint)"
  dune runtest
}

run_sanitize() {
  echo "== [sanitize] DK_SANITIZE=1 dune build @sanitize"
  DK_SANITIZE=1 dune build @sanitize --force
}

run_lint() {
  echo "== [lint] dune build @lint"
  dune build @lint --force
}

run_fault() {
  echo "== [fault] dune build @fault (DK_FAULT_CI=${DK_FAULT_CI:-0})"
  dune build @fault --force
}

run_scenario() {
  echo "== [scenario] dune build @scenario"
  dune build @scenario --force
}

run_offload() {
  echo "== [offload] dune build @offload"
  dune build @offload --force
}

run_bench() {
  echo "== [bench] tools/ci/bench_diff.sh"
  tools/ci/bench_diff.sh
}

run_perf() {
  echo "== [perf] tools/ci/perf_gate.py"
  python3 tools/ci/perf_gate.py
}

case "$stage" in
  build)    run_build ;;
  test)     run_test ;;
  sanitize) run_sanitize ;;
  lint)     run_lint ;;
  fault)    run_fault ;;
  scenario) run_scenario ;;
  offload)  run_offload ;;
  bench)    run_bench ;;
  perf)     run_perf ;;
  all)
    run_build
    run_test
    run_scenario
    run_offload
    run_sanitize
    if [ "${DK_FAULT_CI:-}" = "1" ]; then
      run_fault
    fi
    ;;
  *)
    echo "usage: $0 [build|test|sanitize|lint|fault|scenario|offload|bench|perf|all]" >&2
    exit 2
    ;;
esac

echo "== check.sh: stage '$stage' passed"
