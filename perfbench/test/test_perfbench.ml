(* The benchmark's own logic: percentiles, per-op normalisation, span
   self time, and failure accounting of the echo client. *)

open Perfbench
module Demi = Demikernel.Demi
module Types = Demikernel.Types

(* ---- percentiles ---- *)

let test_tail_rule () =
  let tq = Alcotest.(check (option (float 0.0))) in
  tq "10 samples: none" None (Stats.tail_quantile 10);
  tq "19 samples: none" None (Stats.tail_quantile 19);
  tq "20 samples: p50" (Some 0.5) (Stats.tail_quantile 20);
  tq "100 samples: p90" (Some 0.9) (Stats.tail_quantile 100);
  tq "999 samples: p90" (Some 0.9) (Stats.tail_quantile 999);
  tq "1000 samples: p99" (Some 0.99) (Stats.tail_quantile 1000);
  tq "10^4 samples: p99.9" (Some 0.999) (Stats.tail_quantile 10_000);
  tq "10^5 samples: p99.99" (Some 0.9999) (Stats.tail_quantile 100_000)

let test_nearest_rank () =
  let a = Array.init 100 (fun i -> i + 1) in
  let q = Alcotest.(check int) in
  q "p50" 50 (Stats.quantile_sorted a 0.5);
  q "p99" 99 (Stats.quantile_sorted a 0.99);
  q "p99.9" 100 (Stats.quantile_sorted a 0.999);
  q "p0 is the minimum" 1 (Stats.quantile_sorted a 0.0);
  q "one sample" 7 (Stats.quantile_sorted [| 7 |] 0.99);
  q "beyond p99 of 1000" 10 (Stats.beyond 1000 0.99)

let test_samples_capacity () =
  let s = Stats.samples 3 in
  List.iter (Stats.add s) [ 5; 1; 4; 9 ];
  Alcotest.(check int) "capacity bounds the count" 3 (Stats.length s);
  Alcotest.(check (array int)) "sorted" [| 1; 4; 5 |] (Stats.sorted s);
  Stats.clear s;
  Alcotest.(check int) "cleared" 0 (Stats.length s)

let test_median_float () =
  Alcotest.(check (float 1e-12)) "odd" 2.0 (Stats.median_float [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "even" 2.5 (Stats.median_float [ 4.0; 1.0; 2.0; 3.0 ])

(* ---- per-op normalisation ---- *)

let test_per_op () =
  let f = Alcotest.(check (float 1e-12)) in
  f "count over ops" 2.5 (Stats.per_op 10 ~ops:4);
  f "no ops reads 0" 0.0 (Stats.per_op 10 ~ops:0);
  f "ratio" 0.5 (Stats.ratio 1.0 2.0);
  f "zero base reads 0" 0.0 (Stats.ratio 1.0 0.0);
  f "even parts" 1.0 (Stats.max_over_mean [ 3.0; 3.0; 3.0 ]);
  f "one hot part" 1.5 (Stats.max_over_mean [ 1.0; 1.0; 2.0 ])

(* ---- spans ---- *)

(* Spans as (name, start, stop, parent) in enter order. *)
let buffer spans =
  let buf = Array.make (List.length spans * Span.stride) 0 in
  List.iteri
    (fun i (name, start, stop, parent) ->
      let b = i * Span.stride in
      buf.(b) <- name;
      buf.(b + 1) <- start;
      buf.(b + 2) <- stop;
      buf.(b + 3) <- parent)
    spans;
  buf

let test_self_time () =
  (* root [0,100]: children a [10,30] and b [20,50] overlap (union 40),
     c [90,120] is clipped to the root's end (10); a has a child d. *)
  let spans =
    [ (0, 0, 100, -1); (1, 10, 30, 0); (2, 12, 15, 1); (1, 20, 50, 0); (1, 90, 120, 0) ]
  in
  let self = Span.self_times (buffer spans) (List.length spans) in
  Alcotest.(check (array int)) "self times" [| 50; 17; 3; 30; 30 |] self

let test_self_time_sequential () =
  (* Sequential children: self time is duration minus their sum. *)
  let spans = [ (0, 0, 1000, -1); (1, 100, 200, 0); (1, 300, 450, 0); (0, 2000, 2100, -1) ] in
  let self = Span.self_times (buffer spans) (List.length spans) in
  Alcotest.(check (array int)) "self times" [| 750; 100; 150; 100 |] self

let test_recorder () =
  let t = Span.create ~names:[| "outer"; "inner" |] ~capacity:8 in
  Span.enter t 0;
  Span.leave t;
  Alcotest.(check int) "disabled records nothing" 0 (Span.agg t 0).calls;
  Span.set_enabled t true;
  for r = 1 to 10 do
    Span.set_req t r;
    Span.enter t 0;
    Span.enter t 1;
    Span.leave t;
    Span.enter t 1;
    Span.leave t;
    Span.leave t
  done;
  Span.flush t;
  let outer = Span.agg t 0 and inner = Span.agg t 1 in
  Alcotest.(check int) "outer calls" 10 outer.calls;
  Alcotest.(check int) "inner calls" 20 inner.calls;
  Alcotest.(check bool) "self within total" true
    (outer.self_ns >= 0 && outer.self_ns + inner.total_ns <= outer.total_ns);
  let json = Span.chrome_json [| "outer"; "inner" |] (buffer [ (0, 0, 10, -1); (1, 2, 5, 0) ]) 2 in
  Alcotest.(check bool) "trace-event JSON" true
    (String.starts_with ~prefix:"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{\"name\":\"outer\",\"ph\":\"X\"" json)

(* ---- report ---- *)

let test_report_completes () =
  let ms = Report.complete Report.end_to_end [ Report.m "setup_s" ~samples:3 0.5 ] in
  Alcotest.(check int) "every declared metric" (List.length Report.end_to_end) (List.length ms);
  let x, unit_ = List.find (fun ((x : Report.metric), _) -> x.name = "setup_s") ms in
  Alcotest.(check (float 0.0)) "value kept" 0.5 x.value;
  Alcotest.(check string) "unit" "s" unit_;
  Alcotest.check_raises "undeclared metric"
    (Invalid_argument "Report.complete: undeclared metric nope") (fun () ->
      ignore (Report.complete Report.end_to_end [ Report.m "nope" ~samples:1 1.0 ]));
  Alcotest.(check string) "numbers round-trip" "0.1" (Report.number 0.1);
  Alcotest.(check string) "non-finite" "0" (Report.number Float.nan)

(* ---- failure accounting ---- *)

(* An echo server that flips one bit of every reply. *)
let corrupting_server ~demi ~port =
  let ( let* ) = Result.bind in
  let* lqd = Demi.socket demi `Tcp in
  let* () = Demi.bind demi lqd ~port in
  let* () = Demi.listen demi lqd in
  let rec serve qd =
    match Demi.pop demi qd with
    | Error _ -> ()
    | Ok tok ->
        Demi.watch demi tok (function
          | Types.Popped sga ->
              let s = Bytes.of_string (Dk_mem.Sga.to_string sga) in
              Demi.sga_free demi sga;
              Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) lxor 1));
              (match Demi.sga_alloc demi (Bytes.to_string s) with
              | Ok out -> (
                  match Demi.push demi qd out with
                  | Ok ptok -> Demi.watch demi ptok (fun _ -> ())
                  | Error _ -> ())
              | Error _ -> ());
              serve qd
          | Types.Pushed | Types.Accepted _ | Types.Failed _ -> ())
  in
  let* tok = Demi.accept_async demi lqd in
  Demi.watch demi tok (function
    | Types.Accepted qd -> serve qd
    | Types.Pushed | Types.Popped _ | Types.Failed _ -> ());
  Ok ()

let spans () = Span.create ~names:Layers.names ~capacity:1
let payload = String.init 64 (fun i -> Char.chr (i * 5 land 255))

let test_echo_ok () =
  match Echo_client.setup_bypass ~spans:(spans ()) ~size:64 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let rtts = Array.init 50 (fun _ -> Echo_client.round c payload) in
      Array.sort compare rtts;
      Alcotest.(check bool) "every round succeeds" true (rtts.(0) > 0);
      Alcotest.(check int) "median virtual RTT is E1's 64 B bypass row" 3612
        (Stats.quantile_sorted rtts 0.5);
      Alcotest.(check string) "no failure" "" (Echo_client.failure c)

let test_corrupted_reply_fails () =
  match Echo_client.setup_bypass ~server:corrupting_server ~spans:(spans ()) ~size:64 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Alcotest.(check int) "round fails" (-1) (Echo_client.round c payload);
      Alcotest.(check string) "reason" "reply differs from request" (Echo_client.failure c)

let test_kernel_echo_ok () =
  match Echo_client.setup_kernel ~spans:(spans ()) ~size:4096 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let p = String.init 4096 (fun i -> Char.chr (i * 7 land 255)) in
      for _ = 1 to 3 do
        Alcotest.(check bool) "round succeeds" true (Echo_client.round c p > 0)
      done;
      Alcotest.(check bool) "kernel client drives the engine" true (Echo_client.steps c > 0);
      Alcotest.(check string) "no failure" "" (Echo_client.failure c)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "fixed-capacity samples" `Quick test_samples_capacity;
          Alcotest.test_case "median" `Quick test_median_float;
          Alcotest.test_case "per-op normalisation" `Quick test_per_op;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time, overlapping children" `Quick test_self_time;
          Alcotest.test_case "self time, sequential children" `Quick test_self_time_sequential;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("report", [ Alcotest.test_case "declared metrics" `Quick test_report_completes ]);
      ( "echo",
        [
          Alcotest.test_case "bypass echo verifies" `Quick test_echo_ok;
          Alcotest.test_case "corrupted reply counts as failed" `Quick test_corrupted_reply_fails;
          Alcotest.test_case "kernel echo verifies" `Quick test_kernel_echo_ok;
        ] );
    ]
