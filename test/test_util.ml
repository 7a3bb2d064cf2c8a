(* Unit and property tests for dk_util: ring buffer, heap, checksum,
   crc32, varint, bounded queue. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool

(* ---------------- Ring ---------------- *)

module Ring = Dk_util.Ring

let ring_basic () =
  let r = Ring.create 8 in
  check_int "capacity" 8 (Ring.capacity r);
  check_int "empty length" 0 (Ring.length r);
  check_bool "is_empty" true (Ring.is_empty r);
  check_int "write 5" 5 (Ring.write_string r "hello");
  check_int "length 5" 5 (Ring.length r);
  check_int "available 3" 3 (Ring.available r);
  check_str "read back" "hello" (Ring.read_all r);
  check_bool "empty again" true (Ring.is_empty r)

let ring_overflow () =
  let r = Ring.create 4 in
  check_int "partial write" 4 (Ring.write_string r "abcdef");
  check_bool "is_full" true (Ring.is_full r);
  check_int "no more" 0 (Ring.write_string r "x");
  check_str "kept prefix" "abcd" (Ring.read_all r)

let ring_wraparound () =
  let r = Ring.create 4 in
  ignore (Ring.write_string r "ab");
  check_str "first" "ab" (Ring.read_all r);
  (* head is now at 2; writing 4 bytes wraps *)
  check_int "wrap write" 4 (Ring.write_string r "wxyz");
  check_str "wrapped read" "wxyz" (Ring.read_all r)

let ring_peek_drop () =
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abcdef");
  let buf = Bytes.create 3 in
  check_int "peek 3" 3 (Ring.peek r buf 0 3);
  check_str "peeked" "abc" (Bytes.to_string buf);
  check_int "length unchanged" 6 (Ring.length r);
  check_int "drop 2" 2 (Ring.drop r 2);
  check_str "after drop" "cdef" (Ring.read_all r)

let ring_peek_at_wraparound () =
  (* head at 5 of 8: the stored "efghijk" wraps after "efg" *)
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abcde");
  check_int "drop 5" 5 (Ring.drop r 5);
  ignore (Ring.write_string r "efghijk");
  let buf = Bytes.make 6 '.' in
  check_int "peek across the wrap" 4 (Ring.peek_at r 2 buf 1 4);
  check_str "bytes 2..5" ".ghij." (Bytes.to_string buf);
  check_int "peek past the wrap" 3 (Ring.peek_at r 4 buf 0 3);
  check_str "bytes 4..6" "ijkij." (Bytes.to_string buf);
  check_int "length unchanged" 7 (Ring.length r)

let ring_peek_at_short () =
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abcdef");
  let buf = Bytes.make 8 '.' in
  check_int "skip + len > length" 2 (Ring.peek_at r 4 buf 0 5);
  check_str "only the tail" "ef......" (Bytes.to_string buf);
  check_int "skip = length" 0 (Ring.peek_at r 6 buf 0 3);
  check_int "skip > length" 0 (Ring.peek_at r 7 buf 0 3);
  check_str "untouched" "ef......" (Bytes.to_string buf);
  Alcotest.check_raises "negative skip" (Invalid_argument "Ring.peek")
    (fun () -> ignore (Ring.peek_at r (-1) buf 0 1))

let ring_partial_read () =
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abc");
  let buf = Bytes.create 8 in
  check_int "short read" 3 (Ring.read r buf 0 8)

let ring_clear () =
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abc");
  Ring.clear r;
  check_int "cleared" 0 (Ring.length r)

let ring_invalid () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Ring.create: capacity must be positive")
    (fun () -> ignore (Ring.create 0))

(* Property: a ring behaves like a FIFO byte queue. *)
let ring_fifo_model =
  QCheck.Test.make ~name:"ring matches FIFO model" ~count:300
    QCheck.(pair (int_bound 200) (small_list (pair (string_of_size Gen.(0 -- 20)) (int_bound 20))))
    (fun (cap_raw, script) ->
      let cap = max 1 cap_raw in
      let r = Ring.create cap in
      let model = Stdlib.Buffer.create 64 in
      let model_read = ref 0 in
      List.iter
        (fun (write, read_n) ->
          let wrote = Ring.write_string r write in
          (* model: only the accepted prefix enters *)
          Stdlib.Buffer.add_string model (String.sub write 0 wrote);
          let buf = Bytes.create read_n in
          let got = Ring.read r buf 0 read_n in
          let expected =
            String.sub (Stdlib.Buffer.contents model) !model_read got
          in
          model_read := !model_read + got;
          if not (String.equal expected (Bytes.sub_string buf 0 got)) then
            QCheck.Test.fail_reportf "read mismatch: %S vs %S" expected
              (Bytes.sub_string buf 0 got))
        script;
      let remaining =
        String.sub
          (Stdlib.Buffer.contents model)
          !model_read
          (Stdlib.Buffer.length model - !model_read)
      in
      String.equal remaining (Ring.read_all r))

(* ---------------- Heap ---------------- *)

module Heap = Dk_util.Heap

let heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h (Int64.of_int k) k) [ 5; 3; 9; 1; 7 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 3; 5; 7; 9 ] (List.rev !order)

let heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 5L "a";
  Heap.push h 5L "b";
  Heap.push h 5L "c";
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  check_str "first" "a" (pop ());
  check_str "second" "b" (pop ());
  check_str "third" "c" (pop ())

let heap_min_peek () =
  let h = Heap.create () in
  check_bool "empty min" true (Heap.min h = None);
  Heap.push h 9L "x";
  Heap.push h 2L "y";
  (match Heap.min h with
  | Some (k, v) ->
      check_int "min key" 2 (Int64.to_int k);
      check_str "min value" "y" v
  | None -> Alcotest.fail "expected min");
  check_int "length" 2 (Heap.length h)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap drains sorted" ~count:300
    QCheck.(small_list int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h (Int64.of_int k) k) keys;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let out = drain [] in
      out = List.stable_sort compare keys)

(* ---------------- Checksum ---------------- *)

module Checksum = Dk_util.Checksum

let checksum_known () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, cksum 0x220d *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071" 0x220d (Checksum.compute data 0 8)

let checksum_verify_roundtrip () =
  (* Even-length region: the appended checksum must land on a 16-bit
     boundary for the fold-to-zero property to hold. *)
  let data = Bytes.of_string "\x45\x00\x00\x1cHELLO world padding." in
  let c = Checksum.compute data 0 (Bytes.length data) in
  (* Append the checksum and verify over the whole thing *)
  let whole = Bytes.create (Bytes.length data + 2) in
  Bytes.blit data 0 whole 0 (Bytes.length data);
  Bytes.set whole (Bytes.length data) (Char.chr (c lsr 8));
  Bytes.set whole (Bytes.length data + 1) (Char.chr (c land 0xff));
  check_bool "verifies" true (Checksum.verify whole 0 (Bytes.length whole))

let checksum_odd_length () =
  let data = Bytes.of_string "abc" in
  let c = Checksum.compute data 0 3 in
  check_bool "in range" true (c >= 0 && c <= 0xffff)

let checksum_verify_prop =
  QCheck.Test.make ~name:"checksum verify detects single-bit flips" ~count:200
    QCheck.(string_of_size Gen.(2 -- 64))
    (fun s ->
      QCheck.assume (String.length s mod 2 = 0);
      let data = Bytes.of_string s in
      let c = Checksum.compute data 0 (Bytes.length data) in
      let whole = Bytes.create (Bytes.length data + 2) in
      Bytes.blit data 0 whole 0 (Bytes.length data);
      Bytes.set whole (Bytes.length data) (Char.chr (c lsr 8));
      Bytes.set whole (Bytes.length data + 1) (Char.chr (c land 0xff));
      Checksum.verify whole 0 (Bytes.length whole))

(* The byte-at-a-time sum the word loop replaced: high byte, then low
   byte, of each big-endian 16-bit word; an odd tail byte is padded
   with zero. *)
let reference_sum ~init buf off len =
  let acc = ref init in
  for i = 0 to len - 1 do
    let byte = Char.code (Bytes.get buf (off + i)) in
    acc := !acc + if i land 1 = 0 then byte lsl 8 else byte
  done;
  !acc

(* The wide loads change the partial sum's value but not its class
   modulo 0xffff nor whether it is zero, so every folded checksum is the
   byte-at-a-time one. *)
let checksum_reference_prop =
  QCheck.Test.make
    ~name:"word-load sum folds like the byte-at-a-time sum" ~count:1000
    QCheck.(
      quad (string_of_size Gen.(0 -- 300)) small_nat small_nat
        (int_bound 0x3ffff))
    (fun (s, a, b, init) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let off = a mod (n + 1) in
      let len = b mod (n - off + 1) in
      let fast = Checksum.ones_complement_sum ~init buf off len in
      let slow = reference_sum ~init buf off len in
      fast mod 0xffff = slow mod 0xffff
      && (fast = 0) = (slow = 0)
      && Checksum.finish fast = Checksum.finish slow
      && Checksum.compute buf off len
         = Checksum.finish (reference_sum ~init:0 buf off len)
      && Checksum.verify buf off len
         = (Checksum.finish (reference_sum ~init:0 buf off len) = 0))

(* ---------------- Crc32 ---------------- *)

let crc32_known () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926 *)
  check (Alcotest.int32) "123456789" 0xCBF43926l
    (Dk_util.Crc32.digest_string "123456789");
  check (Alcotest.int32) "empty" 0l (Dk_util.Crc32.digest_string "")

let crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Dk_util.Crc32.digest_string s in
  let b = Bytes.of_string s in
  let half = String.length s / 2 in
  let part1 = Dk_util.Crc32.digest b 0 half in
  let part2 = Dk_util.Crc32.digest ~init:part1 b half (String.length s - half) in
  check (Alcotest.int32) "incremental equals whole" whole part2

(* ---------------- Varint ---------------- *)

module Varint = Dk_util.Varint

let varint_known () =
  let enc v =
    let b = Stdlib.Buffer.create 8 in
    Varint.write b v;
    Stdlib.Buffer.contents b
  in
  check_str "0" "\x00" (enc 0);
  check_str "127" "\x7f" (enc 127);
  check_str "128" "\x80\x01" (enc 128);
  check_str "300" "\xac\x02" (enc 300)

let varint_truncated () =
  check_bool "incomplete returns None" true
    (Varint.read (Bytes.of_string "\x80") 0 = None);
  check_bool "empty returns None" true (Varint.read (Bytes.of_string "") 0 = None);
  (* A complete encoding that ends at or past [stop] is not seen. *)
  let b = Bytes.of_string "\xac\x02\x05" in
  check_bool "read_before sees the bytes before stop" true
    (Varint.read_before b 0 3 = Some (300, 2));
  check_bool "read_before stops short" true (Varint.read_before b 0 1 = None);
  check_bool "read_before at stop" true (Varint.read_before b 2 2 = None)

let varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let b = Stdlib.Buffer.create 10 in
      Varint.write b v;
      let s = Stdlib.Buffer.contents b in
      String.length s = Varint.encoded_size v
      &&
      match Varint.read (Bytes.of_string s) 0 with
      | Some (v', used) -> v = v' && used = String.length s
      | None -> false)

(* ---------------- Bqueue ---------------- *)

module Bqueue = Dk_util.Bqueue

let bqueue_basic () =
  let q = Bqueue.create 2 in
  check_bool "push 1" true (Bqueue.push q 1);
  check_bool "push 2" true (Bqueue.push q 2);
  check_bool "push 3 fails" false (Bqueue.push q 3);
  check_bool "peek" true (Bqueue.peek q = Some 1);
  check_bool "pop 1" true (Bqueue.pop q = Some 1);
  check_bool "pop 2" true (Bqueue.pop q = Some 2);
  check_bool "pop empty" true (Bqueue.pop q = None)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dk_util"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick ring_basic;
          Alcotest.test_case "overflow" `Quick ring_overflow;
          Alcotest.test_case "wraparound" `Quick ring_wraparound;
          Alcotest.test_case "peek/drop" `Quick ring_peek_drop;
          Alcotest.test_case "peek_at wraparound" `Quick ring_peek_at_wraparound;
          Alcotest.test_case "peek_at short" `Quick ring_peek_at_short;
          Alcotest.test_case "partial read" `Quick ring_partial_read;
          Alcotest.test_case "clear" `Quick ring_clear;
          Alcotest.test_case "invalid" `Quick ring_invalid;
        ] );
      qsuite "ring-props" [ ring_fifo_model ];
      ( "heap",
        [
          Alcotest.test_case "order" `Quick heap_order;
          Alcotest.test_case "fifo ties" `Quick heap_fifo_ties;
          Alcotest.test_case "min peek" `Quick heap_min_peek;
        ] );
      qsuite "heap-props" [ heap_sorted_prop ];
      ( "checksum",
        [
          Alcotest.test_case "known vector" `Quick checksum_known;
          Alcotest.test_case "verify roundtrip" `Quick checksum_verify_roundtrip;
          Alcotest.test_case "odd length" `Quick checksum_odd_length;
        ] );
      qsuite "checksum-props" [ checksum_verify_prop; checksum_reference_prop ];
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick crc32_known;
          Alcotest.test_case "incremental" `Quick crc32_incremental;
        ] );
      ( "varint",
        [
          Alcotest.test_case "known encodings" `Quick varint_known;
          Alcotest.test_case "truncated" `Quick varint_truncated;
        ] );
      qsuite "varint-props" [ varint_roundtrip ];
      ( "bqueue",
        [ Alcotest.test_case "basic" `Quick bqueue_basic ] );
    ]
