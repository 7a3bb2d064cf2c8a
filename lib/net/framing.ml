let encode segments =
  let buf = Stdlib.Buffer.create 64 in
  Dk_util.Varint.write buf (List.length segments);
  List.iter (fun s -> Dk_util.Varint.write buf (String.length s)) segments;
  List.iter (Stdlib.Buffer.add_string buf) segments;
  Stdlib.Buffer.contents buf

let encode_sga sga =
  encode (List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga))

let frame_overhead segments =
  Dk_util.Varint.encoded_size (List.length segments)
  + List.fold_left
      (fun acc s -> acc + Dk_util.Varint.encoded_size (String.length s))
      0 segments

(* The undecoded stream bytes are [buf.[head, tail)]. Feeding appends
   at [tail]; decoding a message advances [head]. The buffer is
   compacted or doubled only when the tail reaches its end, so each
   stream byte is copied a constant number of times on average, however
   finely the stream arrives. *)
type decoder = { mutable buf : bytes; mutable head : int; mutable tail : int }

let create () = { buf = Bytes.empty; head = 0; tail = 0 }

(* Room for [n] more bytes at the tail: slide the live bytes to the
   front when that leaves the buffer at most half full, else move them
   into one twice as large (or just large enough). *)
let reserve t n =
  let cap = Bytes.length t.buf in
  if t.tail + n > cap then begin
    let live = t.tail - t.head in
    let dst =
      if live + n <= cap / 2 then t.buf
      else Bytes.create (max (2 * cap) (live + n))
    in
    Bytes.blit t.buf t.head dst 0 live;
    t.buf <- dst;
    t.head <- 0;
    t.tail <- live
  end
  [@@hot.alloc
    "the stream buffer grows by doubling, so a long-lived decoder stops \
     allocating once it holds its largest message"]

let feed t s =
  let n = String.length s in
  if n > 0 then begin
    reserve t n;
    Bytes.blit_string s 0 t.buf t.tail n;
    t.tail <- t.tail + n
  end

let buffered t = t.tail - t.head

(* Decode [nsegs] segment lengths starting at [off], reading no byte at
   or past [stop]; toplevel so the per-message call allocates no closure
   environment. *)
let rec read_lengths b stop nsegs i off acc =
  if i = nsegs then Some (List.rev acc, off)
  else
    match Dk_util.Varint.read_before b off stop with
    | None -> None
    | Some (len, used) ->
        if len < 0 then failwith "framing: bad segment length"
        else read_lengths b stop nsegs (i + 1) (off + used) (len :: acc)
  [@@hot.alloc "the decoded segment-length list is the frame header"]

let rec sum_lens = function [] -> 0 | n :: rest -> n + sum_lens rest

let rec cut_segs b pos = function
  | [] -> []
  | len :: rest -> Bytes.sub_string b pos len :: cut_segs b (pos + len) rest
  [@@hot.alloc "decoding materializes each delivered segment"]

(* Try to decode one message from the head of the stream. *)
let next t =
  match Dk_util.Varint.read_before t.buf t.head t.tail with
  | None -> None
  | Some (nsegs, used0) ->
      if nsegs < 0 || nsegs > 1 lsl 16 then failwith "framing: bad segment count"
      else begin
        match read_lengths t.buf t.tail nsegs 0 (t.head + used0) [] with
        | None -> None
        | Some (lens, body) ->
            let stop = body + sum_lens lens in
            if t.tail < stop then None
            else begin
              let segs = cut_segs t.buf body lens in
              (* An emptied buffer restarts at the front, so the common
                 case of whole messages never compacts. *)
              if stop = t.tail then begin
                t.head <- 0;
                t.tail <- 0
              end
              else t.head <- stop;
              Some segs
            end
      end
