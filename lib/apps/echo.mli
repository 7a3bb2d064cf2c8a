(** Echo server and round-trip client, written once over
    {!Datapath.S} and so run unchanged on every interface:

    - Demikernel queues (kernel-bypass data path, Figure 1 right),
    - POSIX sockets through the simulated kernel (Figure 1 left),
    - mTCP-style batched user-level TCP with the POSIX API (§6).

    Echo is byte-transparent, so it runs unframed: over the stream
    interfaces the bytes on the wire are exactly the payload. Used by
    experiments E1, E2 and E7 to regenerate the paper's architecture
    comparison. *)

module Make (D : Datapath.S) : sig
  val start_server : D.t -> port:int -> (unit, D.error) result
  (** Echo every message back on the connection it arrived on. *)

  val rtt :
    D.t ->
    dst:Dk_net.Addr.endpoint ->
    size:int ->
    rounds:int ->
    (Dk_sim.Histogram.t, D.error) result
  (** One connection, [rounds] closed-loop round trips of [size] bytes;
      the histogram holds each round's virtual-time latency. An error as
      soon as a round cannot complete. *)
end

(** {2 The Demikernel and POSIX instances, under their historical names} *)

val start_demi_server :
  demi:Demikernel.Demi.t -> port:int -> (unit, Demikernel.Types.error) result

val demi_rtt :
  demi:Demikernel.Demi.t ->
  dst:Dk_net.Addr.endpoint ->
  size:int ->
  rounds:int ->
  (Dk_sim.Histogram.t, Demikernel.Types.error) result

val start_posix_server :
  posix:Dk_kernel.Posix.t -> port:int -> (unit, Dk_kernel.Posix.error) result

val posix_rtt :
  posix:Dk_kernel.Posix.t ->
  engine:Dk_sim.Engine.t ->
  dst:Dk_net.Addr.endpoint ->
  size:int ->
  rounds:int ->
  (Dk_sim.Histogram.t, Dk_kernel.Posix.error) result
(** [engine] must be the one [posix] runs on. *)
