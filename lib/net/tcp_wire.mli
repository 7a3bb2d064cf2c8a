(** TCP segment codec: 20-byte header (no options) with pseudo-header
    checksum. Sequence numbers are full 32-bit values; comparisons that
    must respect wraparound live in {!Tcp}.

    The header layout is written once, by {!write} and {!read}, which
    work in place on a frame buffer: the transmit path copies the
    payload into the frame once and {!write} puts the header and the
    checksum around it; {!read} verifies the checksum and returns a
    {!view} whose payload is an offset and length into the same
    buffer. {!encode} and {!decode} are record wrappers over them. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** 32-bit *)
  ack_seq : int;
  flags : flags;
  window : int;
  payload : string;
}

type view = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_seq : int;
  flags : flags;
  window : int;
  buf : bytes;  (** the parsed buffer; read it, never write it *)
  off : int;    (** payload offset in [buf] *)
  len : int;    (** payload length *)
}
(** A parsed segment whose payload stays in the frame. *)

val header_size : int
val no_flags : flags

val write :
  bytes ->
  int ->
  src_ip:Addr.ip ->
  dst_ip:Addr.ip ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack_seq:int ->
  flags:flags ->
  window:int ->
  len:int ->
  unit
(** [write b off ... ~len] writes the header at [off] of a [len]-byte
    segment (header plus payload) whose payload is already in place at
    [off + header_size], and fills in the checksum. [seq] and
    [ack_seq] are taken modulo 2{^32}. *)

val read :
  src_ip:Addr.ip -> dst_ip:Addr.ip -> bytes -> int -> int -> (view, string) result
(** [read ~src_ip ~dst_ip b off len] parses the [len]-byte segment at
    [off]: length, then checksum, then data offset. *)

val encode : src_ip:Addr.ip -> dst_ip:Addr.ip -> t -> string
val decode : src_ip:Addr.ip -> dst_ip:Addr.ip -> string -> (t, string) result

val pp : Format.formatter -> t -> unit
