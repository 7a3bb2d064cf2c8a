(* Tail of the sum: big-endian 16-bit words, the odd last byte padded
   with a zero low byte. *)
let rec sum_words buf i stop acc =
  if i + 1 < stop then sum_words buf (i + 2) stop (acc + Bytes.get_uint16_be buf i)
  else if i < stop then acc + (Bytes.get_uint8 buf i lsl 8)
  else acc

(* The bulk of the sum, one bounds-checked 64-bit load per 8 bytes,
   added as its two 32-bit halves. 2^16 = 1 modulo 0xffff, so a 32-bit
   half is congruent to the sum of its two 16-bit words, and [finish]
   folds either total to the same checksum. The int64 stays in a
   register and the recursion holds no ref cell: the rx hot path
   (verification runs on every frame) allocates nothing here. *)
let rec sum_quads buf i stop acc =
  if i + 8 <= stop then
    let w = Bytes.get_int64_be buf i in
    sum_quads buf (i + 8) stop
      (acc
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xffff_ffff))
  else sum_words buf i stop acc

let ones_complement_sum ?(init = 0) buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Checksum.ones_complement_sum";
  sum_quads buf off (off + len) init

(* Fold the carries back in until the sum fits 16 bits. Pure recursion
   (terminates: each step strictly shrinks a positive sum) — no ref
   cell, the fold runs on the rx hot path for every offloaded frame. *)
let rec finish sum =
  if sum lsr 16 = 0 then lnot sum land 0xffff
  else finish ((sum land 0xffff) + (sum lsr 16))

let compute buf off len = finish (ones_complement_sum buf off len)

let verify buf off len =
  finish (ones_complement_sum buf off len) = 0
