type kind =
  | Enqueue
  | Dequeue
  | Push
  | Pop
  | Completion
  | Drop
  | Retransmit
  | Wakeup
  | Mark

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Push -> "push"
  | Pop -> "pop"
  | Completion -> "completion"
  | Drop -> "drop"
  | Retransmit -> "retransmit"
  | Wakeup -> "wakeup"
  | Mark -> "mark"

let kind_tag = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Push -> 2
  | Pop -> 3
  | Completion -> 4
  | Drop -> 5
  | Retransmit -> 6
  | Wakeup -> 7
  | Mark -> 8

let kind_of_tag = function
  | 0 -> Enqueue
  | 1 -> Dequeue
  | 2 -> Push
  | 3 -> Pop
  | 4 -> Completion
  | 5 -> Drop
  | 6 -> Retransmit
  | 7 -> Wakeup
  | _ -> Mark

type entry = { at : int64; kind : kind; what : string }

(* Wire format inside the byte ring, per entry:
   [2B payload length, big-endian][8B timestamp][1B kind tag][label].
   The length prefix makes eviction O(1) per evicted entry: read the
   prefix, drop that many bytes. *)
let header_len = 2
let payload_fixed = 9 (* timestamp + tag *)
let label_off = header_len + payload_fixed

type t = {
  ring : Dk_util.Ring.t;
  capacity : int;
  entry : Bytes.t;  (* the entry being built, encoded in wire format *)
  hdr : Bytes.t;    (* eviction reads the oldest entry's prefix here *)
  mutable pos : int;  (* end of [entry]'s label so far; -1: none open *)
  mutable on : bool;
  mutable count : int;    (* entries currently in the ring *)
  mutable total : int;    (* entries ever recorded *)
  mutable dropped : int;  (* entries evicted to make room *)
}

let create ?(capacity = 64 * 1024) () =
  if capacity < label_off + 1 then
    invalid_arg "Flight.create: capacity too small for one entry";
  {
    ring = Dk_util.Ring.create capacity;
    capacity;
    entry = Bytes.create capacity;
    hdr = Bytes.create header_len;
    pos = -1;
    on = true;
    count = 0;
    total = 0;
    dropped = 0;
  }

let default = create ()
[@@shard.per_shard
  "process-wide default flight recorder; shard-local code passes its own \
   recorder so entries stay within the shard"]

let enabled t = t.on
let set_enabled t on = t.on <- on

(* ---- the entry builder ----

   The label is written straight into [entry] behind its timestamp and
   tag. [entry] is [capacity] bytes, so a label stops growing at
   [capacity - label_off] bytes: the longest one the ring can hold. *)

let start t ~now kind =
  if t.on then begin
    Bytes.set_int64_be t.entry header_len now;
    Bytes.set_uint8 t.entry (header_len + 8) (kind_tag kind);
    t.pos <- label_off
  end

let add_string t s =
  if t.pos >= 0 then begin
    let n = min (String.length s) (t.capacity - t.pos) in
    Bytes.blit_string s 0 t.entry t.pos n;
    t.pos <- t.pos + n
  end

(* Digits are written least significant first, from the last one's
   position backwards; a digit past the end of [entry] is skipped, so
   a number cut short keeps its leading digits, as a cut string does.
   Decimal works on [v <= 0], so [min_int]'s magnitude cannot
   overflow. *)
let rec dec_width v w = if v > -10 then w else dec_width (v / 10) (w + 1)

let rec put_dec t v i =
  if i < t.capacity then
    Bytes.unsafe_set t.entry i (Char.unsafe_chr (48 - (v mod 10)));
  if v <= -10 then put_dec t (v / 10) (i - 1)

let add_int t n =
  if t.pos >= 0 then begin
    if n < 0 && t.pos < t.capacity then begin
      Bytes.unsafe_set t.entry t.pos '-';
      t.pos <- t.pos + 1
    end;
    let v = if n < 0 then n else -n in
    let w = dec_width v 1 in
    put_dec t v (t.pos + w - 1);
    t.pos <- min t.capacity (t.pos + w)
  end

(* [%x] prints the int's bits unsigned, so [lsr] walks negatives too. *)
let rec hex_width v w = if v lsr 4 = 0 then w else hex_width (v lsr 4) (w + 1)

let rec put_hex t v i =
  if i < t.capacity then
    Bytes.unsafe_set t.entry i (String.unsafe_get "0123456789abcdef" (v land 15));
  if v lsr 4 <> 0 then put_hex t (v lsr 4) (i - 1)

let add_hex t n =
  if t.pos >= 0 then begin
    let w = hex_width n 1 in
    put_hex t n (t.pos + w - 1);
    t.pos <- min t.capacity (t.pos + w)
  end

let evict_one t =
  let got = Dk_util.Ring.read t.ring t.hdr 0 header_len in
  if got = header_len then begin
    let len = Bytes.get_uint16_be t.hdr 0 in
    ignore (Dk_util.Ring.drop t.ring len);
    t.count <- t.count - 1;
    t.dropped <- t.dropped + 1
  end

let commit t =
  if t.pos >= 0 then begin
    let need = t.pos in
    t.pos <- -1;
    Bytes.set_uint16_be t.entry 0 (need - header_len);
    while Dk_util.Ring.available t.ring < need do
      evict_one t
    done;
    ignore (Dk_util.Ring.write t.ring t.entry 0 need);
    t.count <- t.count + 1;
    t.total <- t.total + 1
  end

let record t ~now kind what =
  start t ~now kind;
  add_string t what;
  commit t

let entries t =
  let len = Dk_util.Ring.length t.ring in
  let buf = Bytes.create (max 1 len) in
  let got = Dk_util.Ring.peek t.ring buf 0 len in
  let rec parse off acc =
    if off + header_len > got then List.rev acc
    else begin
      let plen = Bytes.get_uint16_be buf off in
      if off + header_len + plen > got then List.rev acc
      else
        let at = Bytes.get_int64_be buf (off + header_len) in
        let kind = kind_of_tag (Bytes.get_uint8 buf (off + header_len + 8)) in
        let what =
          Bytes.sub_string buf
            (off + header_len + payload_fixed)
            (plen - payload_fixed)
        in
        parse (off + header_len + plen) ({ at; kind; what } :: acc)
    end
  in
  parse 0 []

let length t = t.count
let recorded t = t.total
let evicted t = t.dropped

let clear t =
  Dk_util.Ring.clear t.ring;
  t.count <- 0;
  t.total <- 0;
  t.dropped <- 0

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "%12Ld  %-10s %s@\n" e.at (kind_name e.kind) e.what)
    (entries t)
