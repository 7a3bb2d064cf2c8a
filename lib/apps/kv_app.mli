(** Redis-like key-value server and closed-loop client.

    The TCP server and client are written once over {!Datapath.S} and
    run on Demikernel queues and on POSIX sockets alike; requests and
    responses are {!Proto} segment lists, framed by the datapath where
    it is a byte stream. The server is callback-driven and charges
    [Cost.app_request] of application work per request (the paper's
    ~2 µs Redis figure). It builds responses with
    {!Kv.apply_zero_copy}, so on Demikernel a GET hit shares the stored
    value buffer; a stream datapath copies it onto the wire. The client
    preloads every key with one SET pass, then runs its operations
    closed-loop and records each one's latency.

    The offloaded UDP server below is Demikernel-only: it serves GET
    hits from the NIC. *)

type server

val requests_served : server -> int

type client_stats = {
  ops : int;
  hits : int;
  misses : int;
  latency : Dk_sim.Histogram.t; (** per-op round trip, ns *)
  elapsed_ns : int64;
}

module Tcp (D : Datapath.S) : sig
  val start_server : D.t -> port:int -> kv:Kv.t -> (server, D.error) result

  val run_client :
    D.t ->
    dst:Dk_net.Addr.endpoint ->
    ops:int ->
    keys:int ->
    value_size:int ->
    read_fraction:float ->
    ?zipf_theta:float ->
    ?seed:int64 ->
    unit ->
    (client_stats, D.error) result
  (** An error as soon as a request gets no response. *)
end

val start_udp_offload_server :
  demi:Demikernel.Demi.t ->
  port:int ->
  kv:Kv.t ->
  ?policy:Dk_device.Table.policy ->
  ?obs_prefix:string ->
  ?capacity:int ->
  ?max_value:int ->
  ?populate:bool ->
  unit ->
  (server, Demikernel.Types.error) result
(** UDP server speaking the single-datagram codec
    ({!Proto.udp_request_string}) with the GET hot path offloaded to
    the NIC via {!Demikernel.Demi.offload_udp_get}: on a programmable
    NIC, GET hits are answered from the device-resident table at zero
    host CPU and only misses/SETs/DELs reach this loop. SETs and DELs
    update/invalidate the device entry over the synchronous control
    queue {e before} the response is pushed, so acknowledged writes are
    never followed by stale device reads. [populate] additionally
    inserts host-served GET hits into the device table (default:
    host-managed population only). Without a programmable NIC the same
    pipeline runs on the host, charged per datagram by its static
    footprint ({!Demikernel.Demi.pipeline_cpu_ns}) — responses are
    byte-identical either way. *)

val server_offloaded : server -> bool
(** Whether the GET pipeline actually landed on the device. *)

val set_udp_peer :
  server -> Dk_net.Addr.endpoint -> (unit, Demikernel.Types.error) result
(** Point the offloaded UDP server's replies at its client. *)
