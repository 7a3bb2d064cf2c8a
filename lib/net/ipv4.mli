(** IPv4 header codec (20-byte header, no options) with header
    checksum.

    The header layout is written once, by {!write} and {!read}, which
    work in place on a frame buffer (see {!Eth}); {!encode} and
    {!decode} are record wrappers over them. *)

type proto = Tcp | Udp | Unknown of int

type t = {
  src : Addr.ip;
  dst : Addr.ip;
  proto : proto;
  ttl : int;
  ident : int;
  payload : string;
}

type view = {
  src : Addr.ip;
  dst : Addr.ip;
  proto : proto;
  ttl : int;
  ident : int;
  off : int;  (** payload offset in the parsed buffer *)
  len : int;  (** payload length: the total length minus the header *)
}

val header_size : int

val write :
  bytes ->
  int ->
  src:Addr.ip ->
  dst:Addr.ip ->
  proto:proto ->
  ttl:int ->
  ident:int ->
  len:int ->
  unit
(** [write b off ... ~len] writes the header at [off], checksum
    included, for a packet of total length [len] (header plus
    payload). *)

val read : bytes -> int -> int -> (view, string) result
(** [read b off len] parses the packet in the [len] bytes at [off].
    Rejects short packets, bad versions, checksum mismatches and total
    lengths outside [header_size, len]; bytes past the total length
    (link padding) are not part of the payload. *)

val encode : t -> string

val decode : string -> (t, string) result
(** {!read} over a whole string, with the payload copied out. *)

val pseudo_header_sum : src:Addr.ip -> dst:Addr.ip -> proto:int -> len:int -> int
(** Partial one's-complement sum of the TCP/UDP pseudo header, to fold
    into transport checksums. *)
