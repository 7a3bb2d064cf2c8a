(* Host-cost probes of the wire codecs and the Internet checksum, on
   frames the size of a workload's messages. Public calls only. *)

module Addr = Dk_net.Addr
module Eth = Dk_net.Eth
module Ipv4 = Dk_net.Ipv4
module Tcp_wire = Dk_net.Tcp_wire
module Checksum = Dk_util.Checksum

let src_ip = Addr.ip_of_string "10.0.0.1"
let dst_ip = Addr.ip_of_string "10.0.0.2"

let encode payload =
  let seg =
    {
      Tcp_wire.src_port = 40000;
      dst_port = 7;
      seq = 1;
      ack_seq = 1;
      flags = { Tcp_wire.no_flags with Tcp_wire.ack = true };
      window = 65535;
      payload;
    }
  in
  let ip =
    {
      Ipv4.src = src_ip;
      dst = dst_ip;
      proto = Ipv4.Tcp;
      ttl = 64;
      ident = 1;
      payload = Tcp_wire.encode ~src_ip ~dst_ip seg;
    }
  in
  Eth.encode
    {
      Eth.dst = Addr.mac_of_index 2;
      src = Addr.mac_of_index 1;
      ethertype = Eth.Ipv4;
      payload = Ipv4.encode ip;
    }

let decode frame =
  match Eth.decode frame with
  | Error _ -> None
  | Ok eth -> (
      match Ipv4.decode eth.Eth.payload with
      | Error _ -> None
      | Ok ip -> (
          match Tcp_wire.decode ~src_ip ~dst_ip ip.Ipv4.payload with
          | Error _ -> None
          | Ok seg -> Some seg.Tcp_wire.payload))

(* Repeat [f] until [budget_ns] has passed; host ns per call. *)
let time_per_call ~budget_ns f =
  let start = Span.now_ns () in
  let rec go n =
    let el = Span.now_ns () - start in
    if n > 0 && el >= budget_ns then float_of_int el /. float_of_int n
    else begin
      f ();
      go (n + 1)
    end
  in
  go 0

(* One frame carrying a message of [size] bytes, or its first segment
   when the message spans several. [None] if an encoded frame does not
   decode back to its payload. *)
let codec_ns_per_frame ~size ~budget_ns =
  let seg = min size Dk_net.Tcp.default_config.Dk_net.Tcp.mss in
  let payload = String.init seg (fun i -> Char.chr (i land 255)) in
  if decode (encode payload) <> Some payload then None
  else
    Some
      (time_per_call ~budget_ns (fun () ->
           ignore (Sys.opaque_identity (decode (encode payload)))))

let checksum_ns_per_kb ~size ~budget_ns =
  let buf = Bytes.init size (fun i -> Char.chr ((i * 7) land 255)) in
  let per_call =
    time_per_call ~budget_ns (fun () ->
        ignore (Sys.opaque_identity (Checksum.compute buf 0 size)))
  in
  per_call *. 1024.0 /. float_of_int size
