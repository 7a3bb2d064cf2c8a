(** The lint rule family of dk-analyze.

    Scans OCaml sources (comments/strings stripped, then tokenized —
    the same file read the AST families parse) for project-specific
    correctness rules:

    - [missing-mli]: every [.ml] under [lib/] has a matching [.mli].
    - [unsafe-op]: no [Obj.magic] / [Bytes.unsafe_*] / [String.unsafe_*]
      in fast-path modules ([lib/mem], [lib/core], [lib/net],
      [lib/device] — descriptor rings are fast-path too).
    - [poly-compare]: no polymorphic [=]/[<>]/[compare] applied to
      buffer/sga-named values in fast-path modules (heuristic: fires
      next to identifiers named [buf]/[sga]/[*_buf]/[*_sga]/...).
    - [print-in-lib]: no [Printf.printf]-family calls in [lib/];
      diagnostics go through [Dk_obs.Flight].
    - [catch-all-exn]: no [try ... with _ ->] handlers.
    - [exit-outside-bin]: no [exit] outside [bin/].
    - [adhoc-counter]: no statistics counters outside [Dk_obs.Metrics]
      in [lib/] (heuristic on stats-ish names).
    - [fault-site]: no [Random.*] or wall-clock reads in [lib/device]
      and [lib/fault]; injected faults replay from (plan, seed).
    - [doorbell-site]: [pcie_doorbell] is charged only by
      [Dk_device.Doorbell].
    - [offload-site]: the device-resident table is touched only by
      [lib/device] and the Demi kv control path.

    False positives are suppressed through the allowlist, one
    [rule path] pair per line. *)

val scan_source : path:string -> string -> Tool_common.finding list
(** Content rules only (no filesystem access); [path] selects which
    rules apply and appears in diagnostics. *)

val missing_mli : files:string list -> Tool_common.finding list
(** [missing-mli] over a directory listing: every [.ml] under [lib/]
    whose [.mli] is not in [files]. *)
