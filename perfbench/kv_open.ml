(* Open-loop kv load through [Loadgen.run]: Poisson arrivals at a fixed
   virtual rate over a million modelled connections on four shards.
   The main run is driven through the public [?drive] hook, so the
   benchmark times every group step and splits the offered window into
   virtual-time slices. *)

module Engine = Dk_sim.Engine
module Histogram = Dk_sim.Histogram
module Loadgen = Dk_loadgen.Loadgen
module Scenario = Dk_loadgen.Scenario
module Shard = Dk_shard_rt.Shard
module Metrics = Dk_obs.Metrics
module L = Layers

let shards = L.shards
let conns = 1_000_000
let offered_rate = 670_000.0
let value_size = 64

(* Completions in the first [warm_ns] of the window are not timed:
   trunks, pools and caches fill there. The rest is timed in slices of
   [slice_ns] virtual time; with the yardstick on, every [group_slices]
   slices are followed by a yardstick reading. *)
let warm_ns = 5_000_000L
let slice_ns = 90_000L
let group_slices = 25

let scenario ~duration_ms =
  match Scenario.find "poisson-steady" with
  | Some s -> { s with Scenario.conns; duration_ms }
  | None -> invalid_arg "Kv_open.scenario: poisson-steady missing"

(* What the drive hook measures in the timed part of the window. Speeds
   are yardstick readings (1.0 when the yardstick is off). *)
type timed = {
  setup_ns : int;  (** [Loadgen.run] entry to the [drive] call *)
  setup_speed : float;
  timed_ops : int;
  groups : (int * int * float) list;  (** (completions, host ns, speed) *)
  slices : (int * int * float) list;  (** (host ns, completions, speed) *)
  counters : Counters.t;
  steps : int array;  (** group steps per shard *)
  busy_ns : int array;  (** [Engine.consumed] delta per shard *)
}

type rep = { stats : Loadgen.stats; timed : timed; whole : Counters.t }

let completions =
  let names =
    Array.init shards (fun i -> Shard.obs_name i "apps.loadgen.completed")
  in
  fun () ->
    Array.fold_left (fun a n -> a + Metrics.value (Metrics.counter n)) 0 names

(* Step the group while the earliest event is before [limit]. *)
let rec advance spans engines steps limit =
  match Engine.group_next engines with
  | Some (i, ts) when Int64.compare ts limit < 0 ->
      Span.enter spans (L.shard_step i);
      ignore (Engine.step_group engines);
      Span.leave spans;
      steps.(i) <- steps.(i) + 1;
      advance spans engines steps limit
  | Some _ | None -> ()

let rep ~spans ~seed ~duration_ms ~yardstick =
  let scn = scenario ~duration_ms in
  let reading () = if yardstick then Yardstick.speed () else 1.0 in
  let entry = Span.now_ns () in
  let result = ref None in
  let drive engines =
    let setup_ns = Span.now_ns () - entry in
    let setup_speed = reading () in
    (* Every run enters the window with the collector in the same state. *)
    Gc.full_major ();
    let t0 =
      Array.fold_left
        (fun a e -> if Int64.compare (Engine.now e) a > 0 then Engine.now e else a)
        0L engines
    in
    let deadline = Int64.add t0 (Int64.mul (Int64.of_int duration_ms) 1_000_000L) in
    let n = Array.length engines in
    let steps = Array.make n 0 in
    advance spans engines steps (Int64.add t0 warm_ns);
    Array.fill steps 0 n 0;
    let busy0 = Array.map Engine.consumed engines in
    let c0 = Counters.take () in
    let groups = ref [] and slices = ref [] and pending = ref [] in
    let g_ops = ref 0 and g_ns = ref 0 and timed_ops = ref 0 in
    let close_group () =
      if !pending <> [] then begin
        let speed = reading () in
        groups := (!g_ops, !g_ns, speed) :: !groups;
        List.iter (fun (ns, d) -> slices := (ns, d, speed) :: !slices) !pending;
        pending := [];
        g_ops := 0;
        g_ns := 0
      end
    in
    let limit = ref (Int64.add t0 warm_ns) and k = ref 0 in
    while Int64.compare !limit deadline < 0 do
      let next = Int64.add !limit slice_ns in
      limit := if Int64.compare next deadline > 0 then deadline else next;
      let h0 = Span.now_ns () and d0 = completions () in
      Span.enter spans L.slice;
      advance spans engines steps !limit;
      Span.leave spans;
      let ns = Span.now_ns () - h0 and d = completions () - d0 in
      pending := (ns, d) :: !pending;
      g_ops := !g_ops + d;
      g_ns := !g_ns + ns;
      timed_ops := !timed_ops + d;
      incr k;
      if !k mod group_slices = 0 then close_group ()
    done;
    close_group ();
    let c1 = Counters.take () in
    let busy_ns =
      Array.mapi (fun i e -> Int64.to_int (Int64.sub (Engine.consumed e) busy0.(i))) engines
    in
    (* Drain: the window has closed; trunks finish and hang up. *)
    Engine.run_group engines;
    result :=
      Some
        {
          setup_ns;
          setup_speed;
          timed_ops = !timed_ops;
          groups = List.rev !groups;
          slices = !slices;
          counters = Counters.diff c0 c1;
          steps;
          busy_ns;
        }
  in
  let before = Counters.take () in
  let stats = Loadgen.run ~drive ~offered_rate ~scn ~shards ~seed () in
  let whole = Counters.diff before (Counters.take ()) in
  match !result with
  | None -> invalid_arg "Kv_open.rep: drive hook never ran"
  | Some timed -> { stats; timed; whole }

(* Set-up alone: [Loadgen.run] with a drive hook that notes when it is
   called, reads the yardstick and returns without running the window.
   Returns (host ns to the drive call, yardstick speed). *)
let setup ~seed ~duration_ms =
  let scn = scenario ~duration_ms in
  let entry = Span.now_ns () in
  let took = ref 0 and speed = ref 1.0 in
  let drive _ =
    took := Span.now_ns () - entry;
    speed := Yardstick.speed ()
  in
  ignore (Loadgen.run ~drive ~offered_rate ~scn ~shards ~seed ());
  (!took, !speed)

(* Conservation and integrity checks on one run; the first failing
   check's name, if any. *)
let check r =
  let s = r.stats in
  if s.Loadgen.l_offered <> s.Loadgen.l_admitted + s.Loadgen.l_shed then
    Some "offered <> admitted + shed"
  else if s.Loadgen.l_admitted <> s.Loadgen.l_done then
    Some "admitted <> done after drain"
  else if r.whole.Counters.bad_frames <> 0 then Some "bad frames on the wire"
  else None

let failed r = r.stats.Loadgen.l_shed + (r.stats.Loadgen.l_admitted - r.stats.Loadgen.l_done)

let latency r q = Int64.to_int (Histogram.quantile r.stats.Loadgen.l_lat q)
