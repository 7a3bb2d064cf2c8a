(** LEB128-style variable-length integers, used by the wire framing layer
    (§5.2 of the paper) to delimit scatter-gather segments cheaply. *)

val encoded_size : int -> int
(** Bytes needed to encode a non-negative value. *)

val write : Buffer.t -> int -> unit
(** Append the encoding of a non-negative value.
    @raise Invalid_argument on negative input. *)

val read : bytes -> int -> (int * int) option
(** [read buf off] decodes a value at [off]; returns [(value, bytes
    consumed)] or [None] if the buffer ends mid-encoding. *)

val read_before : bytes -> int -> int -> (int * int) option
(** [read_before buf off stop] is {!read} on the bytes before [stop]:
    [None] if the encoding does not end before [stop].
    @raise Invalid_argument if [stop > Bytes.length buf]. *)
