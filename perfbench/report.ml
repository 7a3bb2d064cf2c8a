(* Metric names, units and the result line. Every metric a run reports
   must be declared here, and a run reports every declared metric of its
   kind: one that does not apply to the workload reads 0 with 0
   samples. *)

type metric = { name : string; value : float; samples : int }

let end_to_end =
  [
    ("sim_ops_per_s", "1/s");
    ("host_op_us_p50", "us");
    ("host_op_us_p99", "us");
    ("minor_words_per_op", "words/op");
    ("promoted_words_per_op", "words/op");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
    ("virt_lat_p50_ns", "vns");
    ("virt_lat_p99_ns", "vns");
    ("virt_lat_p999_ns", "vns");
    ("virt_cpu_ns_per_op", "vns/op");
    ("virt_goodput_kops", "kop/vs");
  ]

let per_layer =
  [
    ("sim.events_per_op", "1/op");
    ("sim.virt_ns_per_op", "vns/op");
    ("sim.step.ns", "ns/call");
    ("core.push.ns", "ns/call");
    ("core.push.words", "words/call");
    ("core.pop.ns", "ns/call");
    ("core.pop.words", "words/call");
    ("core.wait.ns", "ns/call");
    ("core.wait.words", "words/call");
    ("core.tokens_per_op", "1/op");
    ("core.poll_iters_per_op", "1/op");
    ("core.completions_per_poll", "ratio");
    ("mem.sga_alloc.ns", "ns/call");
    ("mem.sga_free.ns", "ns/call");
    ("mem.allocs_per_op", "1/op");
    ("mem.bytes_in_flight_hwm", "B");
    ("mem.alloc_failures", "count");
    ("net.frames_per_op", "1/op");
    ("net.segs_per_op", "1/op");
    ("net.retransmits", "count");
    ("net.dup_acks", "count");
    ("net.bad_frames", "count");
    ("net.codec.ns_per_frame", "ns/frame");
    ("util.checksum.ns_per_kb", "ns/KB");
    ("device.doorbells_per_op", "1/op");
    ("device.wire_bytes_per_payload_byte", "B/B");
    ("device.rx_dropped", "count");
    ("device.tx_rejected", "count");
    ("device.fabric_lost", "count");
    ("device.tx_inflight_hwm", "count");
    ("kernel.write.ns", "ns/call");
    ("kernel.write.words", "words/call");
    ("kernel.read.ns", "ns/call");
    ("kernel.read.words", "words/call");
    ("kernel.epoll_wait.ns", "ns/call");
    ("kernel.epoll_wait.words", "words/call");
    ("kernel.syscalls_per_op", "1/op");
    ("kernel.copied_bytes_per_payload_byte", "B/B");
    ("loadgen.shed", "count");
    ("loadgen.qdepth_hwm", "count");
    ("loadgen.stall_hwm", "count");
    ("loadgen.pre_drive_s", "s/call");
    ("shard.step.ns", "ns/call");
    ("shard.events_max_over_mean", "ratio");
    ("shard.host_ns_max_over_mean", "ratio");
    ("shard.virt_busy_max_over_mean", "ratio");
    ("obs.flight_records_per_op", "1/op");
    ("obs.flight_evicted_per_op", "1/op");
    ("gc.minor_collections_per_kop", "1/kop");
    ("gc.major_collections_per_kop", "1/kop");
    ("app.self.ns_per_op", "ns/op");
    ("trace.overhead", "ratio");
  ]

let m name ~samples value = { name; value; samples }

(* The declared metrics of one kind, in declaration order, taking each
   value from [ms].
   @raise Invalid_argument on a metric that is not declared. *)
let complete declared ms =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name declared) then
        invalid_arg ("Report.complete: undeclared metric " ^ x.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with
      | Some x -> (x, unit_)
      | None -> ({ name; value = 0.0; samples = 0 }, unit_))
    declared

let number v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun (x, unit_) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name (number x.value)
             unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed body

let table metrics =
  List.iter
    (fun (x, unit_) ->
      if x.samples = 0 && x.value = 0.0 then
        Printf.printf "  %-38s %14s %-10s (not exercised)\n" x.name "-" unit_
      else
        Printf.printf "  %-38s %14s %-10s n=%d\n" x.name (number x.value) unit_
          x.samples)
    metrics
