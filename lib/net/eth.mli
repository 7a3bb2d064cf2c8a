(** Ethernet II framing.

    The header layout is written once, by {!write} and {!read}, which
    work in place on a frame buffer: the transmit path writes the
    header into the frame it already built, and the receive path
    parses it and hands the payload on as an offset and length into
    the same buffer. {!encode} and {!decode} are record wrappers over
    them. *)

type ethertype = Arp | Ipv4 | Unknown of int

type t = { dst : Addr.mac; src : Addr.mac; ethertype : ethertype; payload : string }

type view = {
  dst : Addr.mac;
  src : Addr.mac;
  ethertype : ethertype;
  off : int;  (** payload offset in the parsed buffer *)
  len : int;  (** payload length *)
}
(** A parsed header; the payload stays in the buffer. *)

val header_size : int

val write :
  bytes -> int -> dst:Addr.mac -> src:Addr.mac -> ethertype:ethertype -> unit
(** [write b off ~dst ~src ~ethertype] writes the 14-byte header at
    [off]; the payload goes at [off + header_size]. *)

val read : bytes -> int -> int -> (view, string) result
(** [read b off len] parses the [len]-byte frame at [off]. *)

val encode : t -> string
val decode : string -> (t, string) result
val pp : Format.formatter -> t -> unit
