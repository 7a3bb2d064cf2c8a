(* E9 — the Redis scenario end-to-end (§3.2's motivating application):
   a KV store under a Zipf 90/10 GET/SET mix, on the POSIX kernel path
   vs Demikernel queues. Throughput and tail latency. *)

module Datapath = Dk_apps.Datapath
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module H = Dk_sim.Histogram

let ops = 1000
let keys = 200
let value_size = 1024

(* Client stats, then server syscalls and bytes copied per request. *)
let kv_run (type a) (module D : Datapath.S with type t = a) =
  let module Kv_tcp = Kv_app.Tcp (D) in
  let w = Datapath.two_hosts (module D) in
  let kv = Kv.create (D.manager w.Datapath.server) in
  ignore (Kv_tcp.start_server w.Datapath.server ~port:1 ~kv);
  let before = D.io_stats w.Datapath.server in
  match
    Kv_tcp.run_client w.Datapath.client ~dst:(Datapath.server_endpoint w 1) ~ops
      ~keys ~value_size ~read_fraction:0.9 ()
  with
  | Ok s ->
      let after = D.io_stats w.Datapath.server in
      let per_op n = float_of_int n /. float_of_int (ops + keys) in
      ( s,
        per_op (after.Dk_kernel.Posix.syscalls - before.Dk_kernel.Posix.syscalls),
        per_op (after.bytes_copied - before.bytes_copied) )
  | Error _ -> failwith "kv failed"

let describe name (s : Kv_app.client_stats) syscalls copied =
  [
    name;
    Report.kops_per_sec s.Kv_app.ops s.Kv_app.elapsed_ns;
    Report.ns (H.quantile s.Kv_app.latency 0.5);
    Report.ns (H.quantile s.Kv_app.latency 0.99);
    Printf.sprintf "%.1f" syscalls;
    Printf.sprintf "%.0f" copied;
  ]

let run () =
  Report.header ~id:"E9: Redis-style KV end to end" ~source:"§3.2 (Redis example)"
    ~claim:
      "The motivating application: a key-value server whose 2 us of work per\n\
       request is dwarfed by kernel overheads on the legacy path.";
  let ds, dsys, dcopy = kv_run (module Datapath.Demi) in
  let ps, psys, pcopy = kv_run (module Datapath.Posix) in
  let widths = [ 12; 12; 10; 10; 14; 15 ] in
  Report.table widths
    [ "interface"; "kops/s"; "p50(ns)"; "p99(ns)"; "srv syscalls/op"; "srv copied B/op" ]
    [
      describe "posix" ps psys pcopy;
      describe "demikernel" ds dsys dcopy;
    ];
  Report.footnote
    "%d ops, %d keys, %d B values, 90%% GET, Zipf(0.99). Server-side\n\
     syscalls/copies are per request (demikernel: zero by construction).\n"
    ops keys value_size
