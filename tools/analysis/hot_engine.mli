(** The hot rule family of dk-analyze: interprocedural hot-path cost
    analysis.

    The two-pass propagation machinery (per-function effect summaries,
    call-graph BFS, alias resolution) is {!Interproc}, shared with the
    shard family; this module supplies the cost-specific rules and the
    hot-root inventory.

    Rules, each reported at the hot root's definition with the
    offending call chain:
    - [hot-alloc]: no per-op heap allocation (closure capture,
      tuple/list/record construction, [Bytes]/[String]/[Array]
      builders, format strings) may be reachable from a hot root,
      unless the allocating function is classified
      [[@@hot.alloc "why"]] (pool internals, deliberate sim
      bookkeeping, API-mandated handles).
    - [hot-complexity]: no iteration or sorting over unbounded
      collections ([Hashtbl] walks, [Det] sorted iteration, [List]
      traversal) may run per operation.
    - [hot-poly]: no polymorphic compare/hash ([Hashtbl.hash], bare
      [compare], tuple-keyed tables, structural [=] on constructed
      values) may run per operation.
    - [hot-annotation]: an [[@@hot.alloc]] with no why, or one that
      exempts nothing, fails — annotations must stay honest.

    Hot roots ({!Interproc.summary} root kinds): the NIC/RDMA receive
    surface (["rx-delivery"]), the transmit surface (["tx-submit"]),
    the per-op Demi API (["demi-api"]), the doorbell path
    (["doorbell-flush"]), the engine step loop (["engine-step"]), and
    anything marked [[@@hot]] (["annotated"]). *)

type finding = Tool_common.finding

type program

val analyze_files : (string * Parsetree.structure) list -> program
(** [(path, parse tree)] pairs, analyzed together as one program —
    edges may cross files. The [[@@hot.alloc]] audit and exemption run here:
    annotated functions have their alloc-family effects stripped
    (after recording any [hot-annotation] findings). *)

val analyze_dirs : string list -> program * int
(** Parse and analyze every [.ml] under the directories (unparsable
    files skipped); also returns the number of files read. *)

val findings : program -> finding list
(** All four rules, sorted and deduplicated by (path, line, rule). At
    most one finding per rule per root: the budget is the root's, so
    the shortest witness chain is the diagnostic. *)

val summary_of : program -> string -> Interproc.summary option
(** Look up one function's summary by key (for tests and debugging).
    Effect kinds here are ["alloc:<what>"], ["scan:<what>"] and
    ["poly:<what>"]; root kinds ["rx-delivery"], ["tx-submit"],
    ["demi-api"], ["doorbell-flush"], ["engine-step"],
    ["annotated"]. *)

type root_info = {
  r_key : string;
  r_kind : string;
  r_path : string;
  r_line : int;
  r_reached : int;  (** analyzed functions reachable from this root *)
}

val inventory : program -> root_info list
(** Every hot root, sorted by key, with the size of its reachable
    call-graph footprint. *)

val inventory_json : root_info list -> string
val inventory_table : root_info list -> string
