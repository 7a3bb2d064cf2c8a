(* E1 — Figure 1: traditional (kernel-mediated) vs kernel-bypass data
   path. Echo round trips across message sizes, with per-operation
   syscall and copy accounting for the kernel path (the bypass path has
   none, by construction). *)

module Datapath = Dk_apps.Datapath
module H = Dk_sim.Histogram

let rounds = 50

(* p50 RTT, syscalls per round trip and bytes copied per round trip,
   all on the client. *)
let echo (type a) (module D : Datapath.S with type t = a) size =
  let module Echo = Dk_apps.Echo.Make (D) in
  let w = Datapath.two_hosts (module D) in
  ignore (Echo.start_server w.Datapath.server ~port:7);
  let before = D.io_stats w.Datapath.client in
  match Echo.rtt w.Datapath.client ~dst:(Datapath.server_endpoint w 7) ~size ~rounds with
  | Ok h ->
      let after = D.io_stats w.Datapath.client in
      let per_round n = float_of_int n /. float_of_int rounds in
      ( H.quantile h 0.5,
        per_round (after.Dk_kernel.Posix.syscalls - before.Dk_kernel.Posix.syscalls),
        per_round (after.bytes_copied - before.bytes_copied) )
  | Error _ -> failwith "echo failed"

let run () =
  Report.header ~id:"E1: data-path architectures" ~source:"Figure 1"
    ~claim:
      "Kernel-bypass removes the OS kernel from the I/O path: echo RTT drops\n\
       by the syscall + kernel-stack + copy overheads; the bypass path makes\n\
       zero syscalls.";
  let widths = [ 8; 14; 14; 9; 14; 14 ] in
  let rows =
    List.map
      (fun size ->
        let krtt, ksys, kcopy = echo (module Datapath.Posix) size in
        let drtt, _, _ = echo (module Datapath.Demi) size in
        [
          string_of_int size;
          Report.ns krtt;
          Report.ns drtt;
          Report.ratio krtt drtt;
          Printf.sprintf "%.1f" ksys;
          Printf.sprintf "%.0f" kcopy;
        ])
      [ 64; 512; 1024; 4096; 16384 ]
  in
  Report.table widths
    [ "size(B)"; "kernel p50(ns)"; "bypass p50(ns)"; "speedup";
      "k.syscalls/op"; "k.copied B/op" ]
    rows;
  Report.footnote
    "bypass syscalls/op = 0 and copied bytes/op = 0 on the data path by design.\n"
