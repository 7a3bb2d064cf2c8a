(* The repository benchmark: one workload per invocation, one OCaml
   domain, driving only the public API of the libraries.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics. --trace 1 first runs
   untraced for half the time, then records spans around every call the
   benchmark makes into a layer, reports the per-layer metrics and
   writes the first span chunk as Chrome trace-event JSON under
   perfbench/_out/. The last stdout line is one JSON object; the exit
   code is 0 only if every check passed. *)

module Engine = Dk_sim.Engine
module Histogram = Dk_sim.Histogram
module Rng = Dk_sim.Rng
module Echo = Dk_apps.Echo
module Setup = Dk_apps.Sim_setup
module Posix = Dk_kernel.Posix
module Loadgen = Dk_loadgen.Loadgen
open Perfbench
module L = Layers

let m = Report.m
let s_of_ns ns = float_of_int ns /. 1e9
let ns_of_s s = int_of_float (s *. 1e9)
let first_error checks = List.find_map Fun.id checks

type outcome = {
  attempted : int;
  failed : int;
  check : string option;  (** the first check that failed *)
  metrics : Report.metric list;
  notes : (string * string) list;  (** printed only *)
  trace : Span.t option;
}

(* ---- metrics shared by the workloads ---- *)

let quantiles names sorted ~scale =
  let n = Array.length sorted in
  List.filter_map
    (fun (name, q) ->
      if n = 0 then None
      else
        Some
          (m name ~samples:n
             (float_of_int (Stats.quantile_sorted sorted q) /. scale)))
    names

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Read right after the exact window (or run), where the process
   history is the same on every run. *)
let gc_metrics (c : Counters.t) ~ops ~peak_mb =
  [
    m "minor_words_per_op" ~samples:ops (c.minor_words /. float_of_int (max ops 1));
    m "promoted_words_per_op" ~samples:ops
      (c.promoted_words /. float_of_int (max ops 1));
    m "peak_heap_mb" ~samples:1 peak_mb;
  ]

let span_metrics spans =
  let per_call name ~words k =
    let a = Span.agg spans k in
    m (name ^ ".ns") ~samples:a.calls (Stats.per_op a.total_ns ~ops:a.calls)
    :: (if words then
          [ m (name ^ ".words") ~samples:a.calls (Stats.per_op a.words ~ops:a.calls) ]
        else [])
  in
  List.concat
    [
      per_call "core.push" ~words:true L.push;
      per_call "core.pop" ~words:true L.pop;
      per_call "core.wait" ~words:true L.wait;
      per_call "mem.sga_alloc" ~words:false L.sga_alloc;
      per_call "mem.sga_free" ~words:false L.sga_free;
      per_call "kernel.write" ~words:true L.k_write;
      per_call "kernel.read" ~words:true L.k_read;
      per_call "kernel.epoll_wait" ~words:true L.k_epoll;
    ]

let counter_metrics (c : Counters.t) ~ops ~payload_bytes =
  let per name x = m name ~samples:ops (Stats.per_op x ~ops) in
  let count name x = m name ~samples:ops (float_of_int x) in
  let per_kop name x = m name ~samples:ops (1000.0 *. Stats.per_op x ~ops) in
  [
    per "core.tokens_per_op" c.tokens;
    per "core.poll_iters_per_op" c.poll_iters;
    m "core.completions_per_poll" ~samples:c.poll_iters
      (Stats.per_op c.completions ~ops:c.poll_iters);
    per "mem.allocs_per_op" c.allocs;
    m "mem.bytes_in_flight_hwm" ~samples:1
      (float_of_int (Counters.hwm "mem.manager.bytes_in_flight"));
    count "mem.alloc_failures" c.alloc_failures;
    per "net.frames_per_op" c.frames;
    per "net.segs_per_op" c.segs;
    count "net.retransmits" c.retransmits;
    count "net.dup_acks" c.dup_acks;
    count "net.bad_frames" c.bad_frames;
    per "device.doorbells_per_op" c.doorbells;
    m "device.wire_bytes_per_payload_byte" ~samples:ops
      (Stats.per_op c.tx_bytes ~ops:(ops * payload_bytes));
    count "device.rx_dropped" c.rx_dropped;
    count "device.tx_rejected" c.tx_rejected;
    count "device.fabric_lost" c.fabric_lost;
    m "device.tx_inflight_hwm" ~samples:1
      (float_of_int (Counters.hwm "device.nic.tx_inflight"));
    per "obs.flight_records_per_op" c.flight_records;
    per "obs.flight_evicted_per_op" c.flight_evicted;
    per_kop "gc.minor_collections_per_kop" c.minor_gcs;
    per_kop "gc.major_collections_per_kop" c.major_gcs;
  ]

let probe_budget_ns = 200_000_000

let probe_metrics ~size =
  let codec = Probe.codec_ns_per_frame ~size ~budget_ns:probe_budget_ns in
  let sum = Probe.checksum_ns_per_kb ~size ~budget_ns:probe_budget_ns in
  ( (match codec with None -> Some "codec round trip" | Some _ -> None),
    m "util.checksum.ns_per_kb" ~samples:1 sum
    :: (match codec with
       | Some ns -> [ m "net.codec.ns_per_frame" ~samples:1 ns ]
       | None -> []) )

let app_self spans k ~ops =
  let a = Span.agg spans k in
  m "app.self.ns_per_op" ~samples:ops (Stats.per_op a.self_ns ~ops)

let overhead ~traced ~untraced =
  m "trace.overhead" ~samples:1 (Stats.ratio traced untraced)

(* ---- host time at nominal machine speed ---- *)

(* A yardstick reading allocates for 10 ms, which drives minor
   collections that promote the simulator's young objects early; one per
   quarter second keeps that disturbance small. *)
let block_ns = 250_000_000

(* A block's completions per host second at nominal speed. *)
let nominal_rate (ops, ns, speed) =
  Stats.ratio (Stats.ratio (float_of_int ops) (s_of_ns ns)) speed

let median_rate blocks = Stats.median_float (List.map nominal_rate blocks)

let raw_rate blocks =
  let ops, ns = List.fold_left (fun (o, t) (n, ns, _) -> (o + n, t + ns)) (0, 0) blocks in
  Stats.ratio (float_of_int ops) (s_of_ns ns)

let block_ops blocks = List.fold_left (fun a (n, _, _) -> a + n) 0 blocks

let speed_note blocks =
  ( "yardstick speed, median",
    Report.number (Stats.median_float (List.map (fun (_, _, s) -> s) blocks)) )

let raw_note name v = ("raw " ^ name, Report.number v)

(* The percentile rule: the highest percentile with at least ten samples
   beyond it, beside the sample count. *)
let tail_note name n =
  ( name ^ " samples, highest percentile with 10 beyond",
    Printf.sprintf "%d, %s" n
      (match Stats.tail_quantile n with
      | Some q -> Printf.sprintf "p%g" (100.0 *. q)
      | None -> "none") )

(* Set-up samples are (host ns, yardstick speed); the metric is their
   median at nominal speed. *)
let nominal_setup_s samples =
  Stats.median_float (List.map (fun (ns, speed) -> s_of_ns ns *. speed) samples)

let raw_setup_s samples = Stats.median_float (List.map (fun (ns, _) -> s_of_ns ns) samples)

let spans_for ~trace =
  Span.create ~names:L.names ~capacity:(if trace then 1 lsl 17 else 1)

(* ---- echo workloads ---- *)

type echo = { kernel : bool; size : int; exact_ops : int; warm_ops : int }

let setup_batches = 9
let setup_batch = 32

(* Host per-round samples kept per run: more than any echo workload
   completes in a 10 s run on a 2-vCPU VM. *)
let host_capacity = 1 lsl 19

(* Rounds E1 runs per row; the benchmark's first warm-up rounds are
   compared with E1's median over the same count. *)
let e1_rounds = 50

let payloads ~seed ~size =
  let rng = Rng.create (Int64.of_int seed) in
  Array.init 16 (fun _ -> String.init size (fun _ -> Char.chr (Rng.int rng 256)))

(* Closed loop: rounds until [max_ops] ran or [max_ns] of host time
   passed, or the first failed round. Returns (rounds attempted, host
   ns, all succeeded). *)
let run_rounds c spans payloads ~first ~max_ops ~max_ns ~host ~virt =
  let start = Span.now_ns () in
  let rec go i =
    let before = Span.now_ns () in
    if i >= max_ops || before - start >= max_ns then (i, before - start, true)
    else begin
      Span.set_req spans (first + i);
      Span.enter spans L.op;
      let rtt = Echo_client.round c payloads.((first + i) land 15) in
      Span.leave spans;
      let after = Span.now_ns () in
      if rtt < 0 then (i + 1, after - start, false)
      else begin
        Stats.add host (after - before);
        (match virt with Some v -> Stats.add v rtt | None -> ());
        go (i + 1)
      end
    end
  in
  go 0

(* Blocks of rounds, each followed by a yardstick reading, until
   [budget_ns] of host time has passed. Each round's host ns, scaled to
   nominal speed, goes to [host]. Returns (blocks as (rounds, host ns,
   speed), next round index, all succeeded). *)
let timed_rounds run ~first ~budget_ns ~host =
  let raw = Stats.samples host_capacity in
  let start = Span.now_ns () in
  let rec go first blocks =
    if blocks <> [] && Span.now_ns () - start >= budget_ns then (List.rev blocks, first, true)
    else begin
      Stats.clear raw;
      let n, ns, ok = run ~first ~max_ops:max_int ~max_ns:block_ns ~host:raw ~virt:None in
      let speed = Yardstick.speed () in
      Array.iter
        (fun x -> Stats.add host (int_of_float (float_of_int x *. speed)))
        (Stats.to_array raw);
      let blocks = (n, ns, speed) :: blocks in
      if ok then go (first + n) blocks else (List.rev blocks, first + n, false)
    end
  in
  go first []

(* E1's p50 for the same interface and size, from the program's own
   echo clients. *)
let e1_p50 e =
  let rounds = e1_rounds in
  if e.kernel then
    let duo = Setup.two_hosts ~kernel_stack:true () in
    let engine = duo.engine and cost = duo.cost in
    let pa = Setup.posix_of_host ~engine ~cost duo.a in
    let pb = Setup.posix_of_host ~engine ~cost duo.b in
    match Echo.start_posix_server ~posix:pb ~port:7 with
    | Error _ -> None
    | Ok () -> (
        match
          Echo.posix_rtt ~posix:pa ~engine ~dst:(Setup.endpoint duo.b 7) ~size:e.size
            ~rounds
        with
        | Ok h -> Some (Histogram.quantile h 0.5)
        | Error _ -> None)
  else
    let duo = Setup.two_hosts () in
    let engine = duo.engine and cost = duo.cost in
    let da = Setup.demi_of_host ~engine ~cost duo.a () in
    let db = Setup.demi_of_host ~engine ~cost duo.b () in
    match Echo.start_demi_server ~demi:db ~port:7 with
    | Error _ -> None
    | Ok () -> (
        match Echo.demi_rtt ~demi:da ~dst:(Setup.endpoint duo.b 7) ~size:e.size ~rounds with
        | Ok h -> Some (Histogram.quantile h 0.5)
        | Error _ -> None)

let bucketed_p50 sorted =
  let h = Histogram.create () in
  Array.iter (fun v -> Histogram.record h (Int64.of_int v)) sorted;
  Histogram.quantile h 0.5

let posix_delta k0 k1 =
  match (k0, k1) with
  | Some ((a0 : Posix.stats), (p0 : Posix.stats)), Some ((a1 : Posix.stats), (p1 : Posix.stats)) ->
      ( a1.syscalls - a0.syscalls + p1.syscalls - p0.syscalls,
        a1.bytes_copied - a0.bytes_copied + p1.bytes_copied - p0.bytes_copied )
  | _ -> (0, 0)

let echo_run e ~seed ~seconds ~trace =
  let spans = spans_for ~trace in
  let setup () =
    if e.kernel then Echo_client.setup_kernel ~spans ~size:e.size ()
    else Echo_client.setup_bypass ~spans ~size:e.size ()
  in
  (* Set-up is timed on fresh worlds right after the exact window, while
     the process history is still the same on every run; this world only
     serves the rounds. A world is too quick to time alone, and whether a
     minor collection lands inside it is a coin toss, so worlds are timed
     in batches from a collected heap; each batch gives one per-world
     sample (host ns, yardstick speed) and whether every set-up worked. *)
  let setup_times () =
    Gc.full_major ();
    List.init setup_batches (fun _ ->
        let t0 = Span.now_ns () in
        let ok = List.for_all Result.is_ok (List.init setup_batch (fun _ -> setup ())) in
        let ns = (Span.now_ns () - t0) / setup_batch in
        ((ns, Yardstick.speed ()), ok))
  in
  match setup () with
  | Error why ->
      { attempted = 1; failed = 1; check = Some ("setup: " ^ why); metrics = [];
        notes = []; trace = None }
  | Ok c ->
      let eng = Echo_client.engine c in
      let payloads = payloads ~seed ~size:e.size in
      let run ~first ~max_ops ~max_ns ~host ~virt =
        run_rounds c spans payloads ~first ~max_ops ~max_ns ~host ~virt
      in
      let unused = Stats.samples 1 in
      (* Warm-up; its first rounds are compared with E1. *)
      let early = Stats.samples e1_rounds in
      let e_ops, _, ok =
        run ~first:0 ~max_ops:e1_rounds ~max_ns:max_int ~host:unused ~virt:(Some early)
      in
      let w_ops, _, ok =
        if ok then
          run ~first:e_ops ~max_ops:(e.warm_ops - e_ops) ~max_ns:max_int ~host:unused ~virt:None
        else (0, 0, false)
      in
      let w_ops = e_ops + w_ops in
      (* The exact window: a fixed number of rounds, so its counts and
         virtual-clock results repeat exactly for a seed. *)
      let virt = Stats.samples e.exact_ops in
      let c0 = Counters.take () in
      let v0 = Engine.now eng and b0 = Engine.consumed eng in
      let s0 = Echo_client.steps c and k0 = Echo_client.posix_stats c in
      let a_ops, _, ok =
        if ok then
          run ~first:w_ops ~max_ops:e.exact_ops ~max_ns:max_int ~host:unused ~virt:(Some virt)
        else (0, 0, false)
      in
      let cw = Counters.diff c0 (Counters.take ()) in
      let v_ns = Int64.to_int (Int64.sub (Engine.now eng) v0) in
      let busy = Int64.to_int (Int64.sub (Engine.consumed eng) b0) in
      let steps = Echo_client.steps c - s0 in
      let syscalls, copied = posix_delta k0 (Echo_client.posix_stats c) in
      let peak_mb = peak_heap_mb () in
      let setups = if trace then [] else setup_times () in
      (* Host time, in yardstick-read blocks. *)
      let budget_ns = ns_of_s (if trace then seconds /. 2.0 else seconds) in
      let host = Stats.samples host_capacity in
      let blocks, next, ok =
        if ok then timed_rounds run ~first:(w_ops + a_ops) ~budget_ns ~host
        else ([], w_ops + a_ops, false)
      in
      let traced, next, ok =
        if trace && ok then begin
          Span.set_enabled spans true;
          let r = timed_rounds run ~first:next ~budget_ns ~host:unused in
          Span.set_enabled spans false;
          Span.flush spans;
          r
        end
        else ([], next, ok)
      in
      let virt_sorted = Stats.sorted virt in
      let failure = Echo_client.failure c in
      let reference = if ok then e1_p50 e else None in
      let check =
        first_error
          [
            (if failure <> "" then Some failure else None);
            (if List.for_all snd setups then None else Some "a repeated set-up failed");
            (if cw.bad_frames <> 0 then Some "bad frames on the wire" else None);
            (match reference with
            | Some p when Int64.equal p (bucketed_p50 (Stats.sorted early)) -> None
            | Some _ -> Some "virtual p50 of the first rounds differs from E1's row"
            | None -> if ok then Some "E1 reference run failed" else None);
          ]
      in
      let attempted = next and failed = if failure <> "" then 1 else 0 in
      if blocks = [] then { attempted; failed; check; metrics = []; notes = []; trace = None }
      else if not trace then
        let metrics =
          [
            m "sim_ops_per_s" ~samples:(block_ops blocks) (median_rate blocks);
            m "setup_s" ~samples:setup_batches (nominal_setup_s (List.map fst setups));
            m "virt_cpu_ns_per_op" ~samples:a_ops (Stats.per_op busy ~ops:a_ops);
            m "virt_goodput_kops" ~samples:a_ops
              (Stats.ratio (float_of_int a_ops) (s_of_ns v_ns) /. 1e3);
          ]
          @ quantiles
              [ ("host_op_us_p50", 0.5); ("host_op_us_p99", 0.99) ]
              (Stats.sorted host) ~scale:1e3
          @ quantiles
              [ ("virt_lat_p50_ns", 0.5); ("virt_lat_p99_ns", 0.99);
                ("virt_lat_p999_ns", 0.999) ]
              virt_sorted ~scale:1.0
          @ gc_metrics cw ~ops:a_ops ~peak_mb
        in
        let notes =
          [
            raw_note "sim_ops_per_s" (raw_rate blocks);
            raw_note "setup_s" (raw_setup_s (List.map fst setups));
            speed_note blocks;
            tail_note "host_op_us" (Stats.length host);
            tail_note "virt_lat" (Array.length virt_sorted);
          ]
        in
        { attempted; failed; check; metrics; notes; trace = None }
      else
        let probe_check, probes = probe_metrics ~size:e.size in
        let step = Span.agg spans L.step in
        let events = if e.kernel then steps else cw.poll_iters in
        let payload_bytes = 2 * e.size in
        let metrics =
          [
            m "sim.events_per_op" ~samples:a_ops (Stats.per_op events ~ops:a_ops);
            m "sim.virt_ns_per_op" ~samples:a_ops (Stats.per_op v_ns ~ops:a_ops);
            m "sim.step.ns" ~samples:step.calls (Stats.per_op step.total_ns ~ops:step.calls);
            m "kernel.syscalls_per_op" ~samples:a_ops (Stats.per_op syscalls ~ops:a_ops);
            m "kernel.copied_bytes_per_payload_byte" ~samples:a_ops
              (Stats.per_op copied ~ops:(a_ops * payload_bytes));
            app_self spans L.op ~ops:(block_ops traced);
            overhead ~traced:(median_rate traced) ~untraced:(median_rate blocks);
          ]
          @ span_metrics spans
          @ counter_metrics cw ~ops:a_ops ~payload_bytes
          @ probes
        in
        { attempted; failed; check = first_error [ check; probe_check ]; metrics;
          notes = [ speed_note traced ]; trace = Some spans }

(* ---- kv-open ---- *)

(* Every run offers 100 ms of load (67 000 requests): the virtual tail
   percentiles then vary little from seed to seed, while the heap stays
   small enough that major collections do not dominate the host tail.
   Timed runs take about 5 s each, three per 10 s of --seconds (more
   slices for the host p99); their number is fixed by --seconds, not by
   the clock: the heap grows with every run, so a run count that varied
   would move the host figures. *)
let kv_exact_ms = 100
let kv_timed_ms = 100
let kv_timed_reps seconds = max 1 (int_of_float (Float.round (seconds *. 0.3)))

(* Set-up-only runs per timed run, besides the set-ups of the timed
   runs themselves: a 10 s run fits only two timed runs. *)
let kv_setup_reps = 3

let same_run (a : Kv_open.rep) (b : Kv_open.rep) =
  let s = a.stats and t = b.stats in
  Int64.equal s.l_digest t.l_digest
  && s.l_offered = t.l_offered && s.l_done = t.l_done && s.l_inwin = t.l_inwin
  && Int64.equal s.l_host_cpu_ns t.l_host_cpu_ns
  && a.timed.timed_ops = b.timed.timed_ops
  && List.for_all (fun q -> Kv_open.latency a q = Kv_open.latency b q) [ 0.5; 0.99; 0.999 ]

let kv_run ~seed ~seconds ~trace =
  let spans = spans_for ~trace in
  let rep ~duration_ms ~yardstick =
    Gc.full_major ();
    Kv_open.rep ~spans ~seed:(Int64.of_int seed) ~duration_ms ~yardstick
  in
  (* The exact run: no yardstick, so its counts repeat exactly. *)
  let exact = rep ~duration_ms:kv_exact_ms ~yardstick:false in
  let peak_mb = peak_heap_mb () in
  let reps () =
    let n = kv_timed_reps (if trace then seconds /. 2.0 else seconds) in
    List.init n (fun _ -> rep ~duration_ms:kv_timed_ms ~yardstick:true)
  in
  let timed = reps () in
  (* After the timed runs, so their garbage does not grow the heap the
     timed runs work in. *)
  let setups =
    if trace then []
    else
      List.init kv_setup_reps (fun _ ->
          Gc.full_major ();
          Kv_open.setup ~seed:(Int64.of_int seed) ~duration_ms:kv_timed_ms)
  in
  let traced =
    if trace then begin
      Span.set_enabled spans true;
      let r = reps () in
      Span.set_enabled spans false;
      Span.flush spans;
      r
    end
    else []
  in
  let all = (exact :: timed) @ traced in
  let repeats_agree =
    match timed @ traced with
    | first :: rest -> List.for_all (same_run first) rest
    | [] -> true
  in
  let check =
    first_error
      (List.map Kv_open.check all
      @ [ (if repeats_agree then None else Some "repeated runs of one seed differ") ])
  in
  let sum f l = List.fold_left (fun a r -> a + f r) 0 l in
  let attempted = sum (fun (r : Kv_open.rep) -> r.stats.l_offered) all in
  let failed = sum Kv_open.failed all in
  let groups l = List.concat_map (fun (r : Kv_open.rep) -> r.timed.groups) l in
  let s = exact.stats and ops = exact.timed.timed_ops in
  if not trace then
    (* Per timed run, the host ns per op of each slice at nominal speed;
       a 95 ms timed window gives 1055 slices, so a run's p99 has ten
       samples beyond it. A short burst on the shared machine moves one
       run's tail, so the reported percentiles are medians over runs. *)
    let per_op_ns =
      List.map
        (fun (r : Kv_open.rep) ->
          let h = Stats.samples (List.length r.timed.slices) in
          List.iter
            (fun (ns, d, speed) ->
              if d > 0 then Stats.add h (int_of_float (float_of_int ns *. speed /. float_of_int d)))
            r.timed.slices;
          Stats.sorted h)
        timed
    in
    let host_quantile q =
      Stats.median_float
        (List.map (fun a -> float_of_int (Stats.quantile_sorted a q) /. 1e3) per_op_ns)
    in
    let slices = List.fold_left (fun a x -> a + Array.length x) 0 per_op_ns in
    let setups =
      setups @ List.map (fun (r : Kv_open.rep) -> (r.timed.setup_ns, r.timed.setup_speed)) timed
    in
    let metrics =
      [
        m "sim_ops_per_s" ~samples:(block_ops (groups timed)) (median_rate (groups timed));
        m "setup_s" ~samples:(List.length setups) (nominal_setup_s setups);
        m "virt_cpu_ns_per_op" ~samples:s.l_done
          (Stats.ratio (Int64.to_float s.l_host_cpu_ns) (float_of_int s.l_done));
        m "virt_goodput_kops" ~samples:s.l_inwin (s.l_goodput /. 1e3);
      ]
      @ [
          m "host_op_us_p50" ~samples:slices (host_quantile 0.5);
          m "host_op_us_p99" ~samples:slices (host_quantile 0.99);
        ]
      @ List.map
          (fun (name, q) ->
            m name ~samples:(Histogram.count s.l_lat) (float_of_int (Kv_open.latency exact q)))
          [ ("virt_lat_p50_ns", 0.5); ("virt_lat_p99_ns", 0.99); ("virt_lat_p999_ns", 0.999) ]
      @ gc_metrics exact.timed.counters ~ops ~peak_mb
    in
    let notes =
      [
        raw_note "sim_ops_per_s" (raw_rate (groups timed));
        raw_note "setup_s" (raw_setup_s setups);
        speed_note (groups timed);
        tail_note "host_op_us per timed run" (Array.length (List.hd per_op_ns));
        tail_note "virt_lat" (Histogram.count s.l_lat);
      ]
    in
    { attempted; failed; check; metrics; notes; trace = None }
  else
    let probe_check, probes = probe_metrics ~size:Kv_open.value_size in
    let steps = exact.timed.steps in
    let shard_aggs = Array.init (Array.length steps) (fun i -> Span.agg spans (L.shard_step i)) in
    let step_calls = Array.fold_left (fun a (x : Span.agg) -> a + x.calls) 0 shard_aggs in
    let step_ns = Array.fold_left (fun a (x : Span.agg) -> a + x.total_ns) 0 shard_aggs in
    let floats a = Array.to_list (Array.map float_of_int a) in
    let step_ns_per_call = Stats.per_op step_ns ~ops:step_calls in
    let window_ns = (kv_exact_ms * 1_000_000) - Int64.to_int Kv_open.warm_ns in
    let hwm f = float_of_int (Array.fold_left (fun a x -> max a (f x)) 0 s.l_per_shard) in
    let metrics =
      [
        m "sim.events_per_op" ~samples:ops (Stats.per_op (Array.fold_left ( + ) 0 steps) ~ops);
        m "sim.virt_ns_per_op" ~samples:ops (Stats.per_op window_ns ~ops);
        m "sim.step.ns" ~samples:step_calls step_ns_per_call;
        m "shard.step.ns" ~samples:step_calls step_ns_per_call;
        m "shard.events_max_over_mean" ~samples:ops (Stats.max_over_mean (floats steps));
        m "shard.host_ns_max_over_mean" ~samples:step_calls
          (Stats.max_over_mean
             (Array.to_list (Array.map (fun (x : Span.agg) -> float_of_int x.total_ns) shard_aggs)));
        m "shard.virt_busy_max_over_mean" ~samples:ops
          (Stats.max_over_mean (floats exact.timed.busy_ns));
        m "loadgen.shed" ~samples:s.l_offered (float_of_int s.l_shed);
        m "loadgen.qdepth_hwm" ~samples:s.l_offered (hwm (fun x -> x.Loadgen.ls_qdepth_hwm));
        m "loadgen.stall_hwm" ~samples:s.l_offered (hwm (fun x -> x.Loadgen.ls_stall_hwm));
        m "loadgen.pre_drive_s" ~samples:(List.length traced)
          (Stats.median_float
             (List.map (fun (r : Kv_open.rep) -> s_of_ns r.timed.setup_ns) traced));
        app_self spans L.slice ~ops:(sum (fun (r : Kv_open.rep) -> r.timed.timed_ops) traced);
        overhead ~traced:(median_rate (groups traced)) ~untraced:(median_rate (groups timed));
      ]
      @ counter_metrics exact.timed.counters ~ops ~payload_bytes:Kv_open.value_size
      @ probes
    in
    { attempted; failed; check = first_error [ check; probe_check ]; metrics;
      notes = [ speed_note (groups traced) ]; trace = Some spans }

(* ---- command line ---- *)

type workload = Echo_wl of echo | Kv

let workloads =
  [
    ("echo-64", Echo_wl { kernel = false; size = 64; exact_ops = 20_000; warm_ops = 2_000 });
    ("echo-4k", Echo_wl { kernel = false; size = 4096; exact_ops = 10_000; warm_ops = 500 });
    ("kernel-echo-4k", Echo_wl { kernel = true; size = 4096; exact_ops = 10_000; warm_ops = 500 });
    ("kv-open", Kv);
  ]

let export_trace spans ~workload ~seed =
  let dir = Filename.concat "perfbench" "_out" in
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
    Span.export spans path ~limit:20_000;
    Printf.printf "trace: %s\n" path;
    None
  with Sys_error e -> Some ("trace export: " ^ e)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured host seconds");
      ("--trace", Arg.Set_int trace, " 1 = traced run with per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload '" ^ !workload ^ "'\n" ^ usage);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let o =
    match wl with
    | Echo_wl e -> echo_run e ~seed:!seed ~seconds:!seconds ~trace
    | Kv -> kv_run ~seed:!seed ~seconds:!seconds ~trace
  in
  let export =
    match o.trace with
    | Some spans -> export_trace spans ~workload:!workload ~seed:!seed
    | None -> None
  in
  let check = first_error [ o.check; export ] in
  let declared = if trace then Report.per_layer else Report.end_to_end in
  let metrics = Report.complete declared o.metrics in
  Printf.printf "workload %s  seed %d  trace %b\n" !workload !seed trace;
  Report.table metrics;
  List.iter (fun (k, v) -> Printf.printf "  (%s: %s)\n" k v) o.notes;
  Printf.printf "  %-38s %14s\n" "fail_ratio"
    (Report.number (Stats.ratio (float_of_int o.failed) (float_of_int (max 1 o.attempted))));
  (match check with
  | Some what -> Printf.eprintf "perfbench: %s: check failed: %s\n" !workload what
  | None -> ());
  let correct = check = None && o.failed = 0 in
  print_endline
    (Report.json_line ~correct ~attempted:(max 1 o.attempted) ~failed:o.failed metrics);
  exit (if correct then 0 else 1)
