module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Prog = Dk_device.Prog

type offload = {
  demi : Demi.t;
  qd : Types.qd;
  offloaded : bool;
  populate : bool;
  cpu_pipeline : Prog.pipeline;
      (* payload-level GET pipeline evaluated on the host when the NIC
         is not programmable; [] everywhere else *)
}

type server = { kv : Kv.t; mutable served : int; offload : offload option }

type client_stats = {
  ops : int;
  hits : int;
  misses : int;
  latency : Dk_sim.Histogram.t;
  elapsed_ns : int64;
}

let ( let* ) = Result.bind

module Tcp (D : Datapath.S) = struct
  let start_server t ~port ~kv =
    let srv = { kv; served = 0; offload = None } in
    let engine = D.engine t and app_ns = (D.cost t).Cost.app_request in
    let answer c m =
      Engine.consume engine app_ns;
      (match Proto.request_of_segments (D.segments m) with
      | Some req ->
          ignore (D.push t c (D.of_sga (Kv.apply_zero_copy kv req)));
          srv.served <- srv.served + 1
      | None -> ());
      D.drop m
    in
    let* () = D.listen t ~port ~framed:true ~on_accept:answer in
    Ok srv

  let run_client t ~dst ~ops ~keys ~value_size ~read_fraction
      ?(zipf_theta = 0.99) ?(seed = 11L) () =
    let* c = D.connect t ~dst ~framed:true in
    let engine = D.engine t in
    let wl =
      Workload.create ~seed (Workload.Zipf { n = keys; theta = zipf_theta })
    in
    let rpc req =
      let* () = D.push t c (D.of_sga (Proto.request_sga req)) in
      D.pop t c
    in
    let rec preload i =
      if i = keys then Ok ()
      else
        let* _ =
          rpc (Proto.Set (Workload.key_name i, Workload.value wl ~size:value_size))
        in
        preload (i + 1)
    in
    let* () = preload 0 in
    let latency = Dk_sim.Histogram.create () in
    let hits = ref 0 and misses = ref 0 in
    let start = Engine.now engine in
    let rec run i =
      if i = ops then Ok ()
      else begin
        let key = Workload.key_name (Workload.next_key wl) in
        let req =
          if Workload.is_get wl ~read_fraction then Proto.Get key
          else Proto.Set (key, Workload.value wl ~size:value_size)
        in
        let t0 = Engine.now engine in
        let* resp = rpc req in
        Dk_sim.Histogram.record latency (Int64.sub (Engine.now engine) t0);
        (match Proto.response_of_segments (D.segments resp) with
        | Some (Proto.Value _) -> incr hits
        | Some Proto.Not_found -> incr misses
        | Some (Proto.Stored | Proto.Deleted) | None -> ());
        D.drop resp;
        run (i + 1)
      end
    in
    let* () = run 0 in
    Ok
      {
        ops;
        hits = !hits;
        misses = !misses;
        latency;
        elapsed_ns = Int64.sub (Engine.now engine) start;
      }
end

(* ---- offloaded UDP server (single-datagram codec) ----

   Requests arrive as flat strings under the Proto UDP codec. When the
   NIC is programmable, GET hits never reach this loop — the device
   answers them from its resident table; only misses, SETs and DELs
   land here. Device-table coherence is maintained *before* a mutating
   response is pushed (over the synchronous control queue), so a client
   that has seen a SET acknowledged can never read a stale device
   entry. Without a programmable NIC the same pipeline stages run here
   on the host, priced by their static footprint. *)

let push_flat o s =
  match Demi.push o.demi o.qd (Dk_mem.Sga.of_strings [ s ]) with
  | Ok tok -> Demi.watch o.demi tok (fun _ -> ())
  | Error _ -> ()

let answer_udp srv o sga =
  let payload =
    String.concat "" (List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga))
  in
  Dk_mem.Sga.free sga;
  let fallback_hit =
    match o.cpu_pipeline with
    | [] -> None
    | p -> (
        Engine.consume (Demi.engine o.demi)
          (Demi.pipeline_cpu_ns o.demi p (String.length payload));
        match Prog.eval_pipeline ~lookup:(Kv.get_copy srv.kv) p payload with
        | Prog.Responded r -> Some r
        | Prog.Deliver _ | Prog.Dropped | Prog.Steered _ -> None)
  in
  match fallback_hit with
  | Some raw ->
      push_flat o raw;
      srv.served <- srv.served + 1
  | None -> (
      Engine.consume (Demi.engine o.demi) (Demi.cost o.demi).Cost.app_request;
      match Proto.udp_request_of_string payload with
      | None -> ()
      | Some req ->
          let resp = Kv.apply srv.kv req in
          (match (req, resp) with
          | Proto.Set (k, v), Proto.Stored ->
              ignore (Demi.offload_update o.demi k v : bool)
          | Proto.Del k, _ ->
              ignore (Demi.offload_invalidate o.demi k : bool)
          | Proto.Get k, Proto.Value v when o.populate && o.offloaded -> (
              match Demi.offload_insert o.demi k v with
              | Ok () | Error `Rejected -> ())
          | _ -> ());
          push_flat o (Proto.udp_response_string resp);
          srv.served <- srv.served + 1)

let rec serve_udp srv o =
  match Demi.pop o.demi o.qd with
  | Error _ -> ()
  | Ok tok ->
      Demi.watch o.demi tok (function
        | Types.Popped sga ->
            answer_udp srv o sga;
            serve_udp srv o
        | Types.Failed _ -> (
            match Demi.close o.demi o.qd with Ok () | Error _ -> ())
        | Types.Pushed | Types.Accepted _ -> ())

let start_udp_offload_server ~demi ~port ~kv ?policy ?obs_prefix ?capacity
    ?(max_value = 4096) ?(populate = false) () =
  let* qd = Demi.socket demi `Udp in
  let* () = Demi.bind demi qd ~port in
  let offloaded =
    match
      Demi.offload_udp_get demi qd ?policy ?obs_prefix ?capacity ~max_value ()
    with
    | Ok () -> true
    | Error _ -> false
  in
  let cpu_pipeline = if offloaded then [] else Demi.get_pipeline ~max_value in
  let o = { demi; qd; offloaded; populate; cpu_pipeline } in
  let srv = { kv; served = 0; offload = Some o } in
  serve_udp srv o;
  Ok srv

let server_offloaded srv =
  match srv.offload with Some o -> o.offloaded | None -> false

let set_udp_peer srv peer =
  match srv.offload with
  | Some o -> Demi.connect o.demi o.qd ~dst:peer
  | None -> Ok ()

let requests_served srv = srv.served
