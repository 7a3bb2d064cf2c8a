(** Spans recorded by the benchmark around its calls into each layer.

    A span has a name, a host-clock start and end (ns), the span open
    when it began (its parent), the request it belongs to, and the
    minor-heap words allocated while it was open. Spans are kept in a
    flat preallocated buffer; whenever no span is open and the buffer is
    half full, the buffer is folded into per-name totals (calls,
    inclusive ns, self ns, words) and reused. The first such chunk is
    kept for {!export}. Disabled, [enter]/[leave] cost one branch. *)

type t

val create : names:string array -> capacity:int -> t
(** Span names are indices into [names]; [capacity] bounds the spans of
    one buffer chunk. *)

val set_enabled : t -> bool -> unit

val set_req : t -> int -> unit
(** Request id stamped on the spans opened from now on. *)

val enter : t -> int -> unit
val leave : t -> unit
(** Closes the innermost open span. *)

val flush : t -> unit
(** Fold the buffered spans into the totals. Call with no span open. *)

val now_ns : unit -> int
(** The monotonic host clock the spans use. *)

type agg = { calls : int; total_ns : int; self_ns : int; words : int }

val agg : t -> int -> agg
(** Totals for one span name over every flushed span. *)

(** {2 Pure pieces, exposed for tests} *)

val stride : int
(** Ints per span in a buffer: name, start, stop, parent, req, words. *)

val self_times : int array -> int -> int array
(** [self_times buf n]: per span, its duration minus the part of its
    interval that its children's intervals cover. *)

val chrome_json : string array -> int array -> int -> string
(** Chrome trace-event JSON of the first [n] spans of a buffer. *)

val export : t -> string -> limit:int -> unit
(** Write at most [limit] spans of the first flushed chunk as Chrome
    trace-event JSON. *)
