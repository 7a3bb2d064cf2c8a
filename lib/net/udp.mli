(** UDP datagram codec with pseudo-header checksum.

    As in {!Tcp_wire}, {!write} and {!read} hold the header layout and
    work in place on a frame buffer; {!encode} and {!decode} wrap
    them. *)

type t = { src_port : int; dst_port : int; payload : string }

type view = { src_port : int; dst_port : int; off : int; len : int }
(** A parsed datagram; [off]/[len] locate the payload in the buffer. *)

val header_size : int

val write :
  bytes ->
  int ->
  src_ip:Addr.ip ->
  dst_ip:Addr.ip ->
  src_port:int ->
  dst_port:int ->
  len:int ->
  unit
(** Writes the header at [off] of a [len]-byte datagram whose payload
    is already in place, checksum included. *)

val read :
  src_ip:Addr.ip -> dst_ip:Addr.ip -> bytes -> int -> int -> (view, string) result

val encode : src_ip:Addr.ip -> dst_ip:Addr.ip -> t -> string
val decode : src_ip:Addr.ip -> dst_ip:Addr.ip -> string -> (t, string) result
