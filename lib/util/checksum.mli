(** RFC 1071 Internet checksum, used by the IPv4/UDP/TCP layers of the
    user-level network stack. *)

val ones_complement_sum : ?init:int -> bytes -> int -> int -> int
(** [ones_complement_sum ?init buf off len] adds the one's complement
    sum of [len] bytes at [off] to [init] (default 0). The result is a
    partial sum, not yet folded or complemented: it is congruent modulo
    0xffff to [init] plus the big-endian 16-bit words (an odd last byte
    padded with zero), and zero exactly when that sum is, which is all
    {!finish} depends on. The bytes are read 64 bits at a time. *)

val finish : int -> int
(** Fold carries and take the one's complement, yielding the 16-bit
    checksum value to store in a header. *)

val compute : bytes -> int -> int -> int
(** [compute buf off len] is [finish (ones_complement_sum buf off len)]. *)

val verify : bytes -> int -> int -> bool
(** A region whose checksum field is filled in verifies iff the sum over
    the whole region (including the field) folds to zero. *)
