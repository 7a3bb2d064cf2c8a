(** Shared plumbing for dk-analyze's four rule families (lint, verify,
    shard, hot): the finding type, the one parse every AST family
    reads, allowlist semantics, and defensive directory walking.

    The allowlist contract lives here so the families cannot drift:
    one [rule path] pair per line suppresses every finding of that rule
    in that file, and an entry that no longer matches anything is
    reported as stale and fails the run — the allowlist can only
    shrink. *)

type finding = { path : string; line : int; rule : string; message : string }

val compare_finding : finding -> finding -> int
(** Order by path, then line, then rule (message excluded, so
    [List.sort_uniq compare_finding] deduplicates same-site findings). *)

val pp_finding : finding -> string
(** ["path:line: [rule] message"]. *)

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool

val normalize : string -> string
(** Backslashes to slashes, leading ["./"] stripped — allowlist paths
    and scanned paths must compare equal however they were spelled. *)

val read_file : string -> string

val files : string list -> string list
(** Every file under the given directories, normalized, sorted and
    deduplicated. Directories whose name starts with ['.'] or ['_'] are
    skipped (a stray local [_build/], [_opam/] or [.git/] must never
    inject phantom findings), and so are dotfiles. Nonexistent
    directories contribute nothing. *)

val ml_files : string list -> string list
(** {!files} restricted to [.ml] sources. *)

val parse : path:string -> string -> (Parsetree.structure, finding) result
(** Parse one source with compiler-libs (no typechecking). A source
    that does not parse yields its single [parse-error] finding. *)

val parse_dirs : string list -> (string * Parsetree.structure) list * int
(** Parse every [.ml] under the directories, skipping the ones that do
    not parse; also returns the number of files read. *)

type allow_entry = { a_rule : string; a_path : string; mutable used : bool }

val load_allowlist : string -> allow_entry list
(** Empty when the file does not exist; malformed lines are reported on
    stderr and skipped. *)

val apply_allowlist :
  allow_entry list -> finding list -> finding list * allow_entry list
(** Returns the findings not covered by the allowlist, plus the unused
    (stale) allowlist entries. *)

val json_escape : string -> string
(** Escape for inclusion inside a JSON string literal. *)
