(** Flight recorder: a fixed-capacity ring of the most recent datapath
    events, for post-mortem introspection of a path the kernel can no
    longer see.

    Entries are length-prefixed records packed into a
    {!Dk_util.Ring.t} byte ring; when the ring fills, the oldest
    entries are evicted, so memory use is bounded by [capacity] bytes
    regardless of event rate. Dump it on demand ({!pp}) or wire it to
    sanitizer violations:

    {[ Dk_check.set_sink (fun _ _ -> Format.eprintf "%a" Flight.pp Flight.default) ]}

    Recording never touches the simulation engine: timestamps are
    passed in by the caller ([Engine.now] reads, never consumes), so
    the recorder obeys the same zero-virtual-time invariant as
    {!Metrics}. *)

type kind =
  | Enqueue      (** element entered a device/queue ring *)
  | Dequeue      (** element left a device/queue ring *)
  | Push         (** application push on a queue descriptor *)
  | Pop          (** application pop on a queue descriptor *)
  | Completion   (** an operation's token completed *)
  | Drop         (** element lost: full ring, lossy fabric, filter *)
  | Retransmit   (** TCP resent a segment (RTO or fast retransmit) *)
  | Wakeup       (** a waiter/fiber/worker was woken *)
  | Mark         (** free-form annotation *)

val kind_name : kind -> string

type entry = { at : int64; kind : kind; what : string }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is in bytes of encoded entries (default 64 KiB).
    @raise Invalid_argument if too small to hold a single entry. *)

val default : t
(** Process-wide recorder the built-in instrumentation writes to. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** {2 Recording}

    An entry is built in place: {!start} it, append its label piece by
    piece, then {!commit} it, e.g. the equivalent of
    [sprintf "nic %x rx %dB" mac len] is

    {[
      Flight.start f ~now Flight.Enqueue;
      Flight.add_string f "nic ";
      Flight.add_hex f mac;
      Flight.add_string f " rx ";
      Flight.add_int f len;
      Flight.add_string f "B";
      Flight.commit f
    ]}

    The builder allocates nothing: the entry is encoded into a scratch
    buffer the recorder preallocates at {!create} and copied into the
    ring by one write, evicting the oldest entries as needed. When the
    recorder is disabled each call is one branch. Labels longer than
    the ring allows are truncated. Entries do not nest: build one at a
    time. *)

val start : t -> now:int64 -> kind -> unit
(** Open an entry stamped [now]; no-op when disabled. *)

val add_string : t -> string -> unit
(** Append to the open entry's label (no-op when none is open). *)

val add_int : t -> int -> unit
(** Append an int in decimal, as [%d]. *)

val add_hex : t -> int -> unit
(** Append an int in lowercase hex, as [%x] (negatives print their
    bits unsigned, as [%x] does). *)

val commit : t -> unit
(** Append the open entry to the ring and close it. *)

val record : t -> now:int64 -> kind -> string -> unit
(** [record t ~now kind s] is [start], [add_string s], [commit]. *)

val entries : t -> entry list
(** Oldest first. Non-destructive. *)

val length : t -> int
(** Entries currently held. *)

val recorded : t -> int
(** Total entries ever recorded (including evicted ones). *)

val evicted : t -> int
(** Entries evicted to make room since creation or [clear]. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** One line per entry: [%12Ld  %-10s %s] (timestamp, kind, label). *)
