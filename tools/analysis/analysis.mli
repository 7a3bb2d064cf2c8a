(** dk-analyze, the one source-analysis driver. Each source is read and
    parsed once, and the four rule families run over that one read:

    - lint ({!Lint_engine}, token stream) and verify ({!Verify_engine},
      per-file typestate) over every file read — by default
      [lib bench examples];
    - shard ({!Shard_engine}) and hot ({!Hot_engine}), each one
      interprocedural pass over exactly the [lib/] files among them,
      analyzed as one program.

    A source that does not parse yields one [parse-error] finding, not
    one per family. One allowlist serves all four families: rule names
    are disjoint across them, so an entry suppresses only its own
    family's findings. *)

val scan_sources :
  files:string list -> (string * string) list -> Tool_common.finding list
(** [(path, text)] sources, already read; [files] is the whole
    directory listing ([missing-mli] looks for each [.mli] there).
    Returns every family's findings, sorted by (path, line, rule). *)

val scan : string list -> Tool_common.finding list * int
(** Read every file under the directories and {!scan_sources} them;
    also returns the number of [.ml] sources read. *)

type report = {
  files : int;
  kept : Tool_common.finding list;  (** findings the allowlist missed *)
  stale : Tool_common.allow_entry list;  (** entries matching nothing *)
  allowlisted : int;  (** entries in use *)
}

val run : allowlist:string -> string list -> report
(** {!scan}, then subtract the allowlist file (absent = empty). *)

val failed : report -> bool
(** A run fails on any kept finding or any stale allowlist entry. *)

val main : unit -> unit
(** The command line:
    [dk_analyze [--root DIR] [--allowlist FILE] [--json] [DIR ...]].
    Prints findings and stale entries (as text, or as one JSON report
    under [--json]); exits 1 when {!failed}, 2 on a bad option or a
    missing directory, 0 otherwise. *)
