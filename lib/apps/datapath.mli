(** One datapath signature, so an application is written once and runs
    unchanged over every I/O interface of the simulation — the paper's
    Figure 2 (one application over many libOSes).

    Servers are event-driven: {!S.listen} installs a per-connection
    message handler and returns at once. Clients block: {!S.connect},
    {!S.push} and {!S.pop} drive the virtual clock until their
    operation resolves, and fail rather than hang when it cannot.

    Demikernel queues carry atomic scatter-gather messages. The POSIX
    and mTCP instances carry byte streams, so the message boundaries
    are theirs to keep: on a [~framed:true] connection every message is
    a {!Dk_net.Framing} frame; on a [~framed:false] one every chunk read
    off the stream is a message, which suits byte-transparent apps such
    as echo. Demikernel ignores [~framed]. Applications never see the
    framing. *)

module type S = sig
  type t
  (** One host's end of the datapath. *)

  type conn
  type msg
  type error

  val kernel_stack : bool
  (** Whether hosts for this datapath run the in-kernel network stack
      ({!Sim_setup.two_hosts}'s [~kernel_stack]). *)

  val of_host :
    engine:Dk_sim.Engine.t -> cost:Dk_sim.Cost.t -> Sim_setup.host -> t

  val engine : t -> Dk_sim.Engine.t
  val cost : t -> Dk_sim.Cost.t

  val manager : t -> Dk_mem.Manager.t
  (** Memory for application data: the libOS's registered heap on
      Demikernel; a fresh unregistered heap on the stream instances. *)

  val io_stats : t -> Dk_kernel.Posix.stats
  (** Syscalls made and bytes copied across the application boundary so
      far (zero and zero on Demikernel, zero syscalls on mTCP). *)

  val listen :
    t ->
    port:int ->
    framed:bool ->
    on_accept:(conn -> msg -> unit) ->
    (unit, error) result
  (** [on_accept c] is called once per accepted connection and returns
      its message handler. A handler replies with {!push}. A raw POSIX
      connection writes each reply as its chunk is handled; a framed
      one reads until the socket is empty, handles every complete
      message, then writes all their replies at once. *)

  val connect :
    t -> dst:Dk_net.Addr.endpoint -> framed:bool -> (conn, error) result
  (** Blocks until the connection is established; an error when the
      peer refuses it. *)

  val push : t -> conn -> msg -> (unit, error) result
  (** On a connected client: blocks until the message is sent. On an
      accepted connection: queues the reply and returns. *)

  val pop : t -> conn -> (msg, error) result
  (** Blocks until the next message arrives. *)

  val close : t -> conn -> unit
  (** Demikernel closes the queue; the stream instances leave the
      socket open, as the kernel and mTCP echo baselines do. *)

  (** {2 Messages} *)

  val alloc : t -> string -> (msg, error) result
  (** A message in datapath-owned memory (Demikernel: [sga_alloc]). *)

  val free : t -> msg -> unit
  (** Return a message through the datapath's free call (Demikernel
      charges [Cost.free]; nothing on the streams). *)

  val of_sga : Dk_mem.Sga.t -> msg
  (** Send an application-built sga as is (zero-copy on Demikernel). *)

  val segments : msg -> string list
  val length : msg -> int

  val drop : msg -> unit
  (** Drop the application's reference to a received message without a
      datapath call. *)
end

module Demi :
  S
    with type t = Demikernel.Demi.t
     and type error = Demikernel.Types.error

module Posix :
  S
    with type t = Dk_kernel.Posix.t
     and type error = Dk_kernel.Posix.error

module Mtcp :
  S
    with type t = Dk_kernel.Mtcp.t
     and type error = [ `In_use | `Refused | `Connection_closed ]

type 'a world = { duo : Sim_setup.duo; client : 'a; server : 'a }

val two_hosts : (module S with type t = 'a) -> 'a world
(** A fresh two-host world with this datapath on both hosts: the client
    on host [a], the server on host [b]. *)

val server_endpoint : 'a world -> int -> Dk_net.Addr.endpoint
