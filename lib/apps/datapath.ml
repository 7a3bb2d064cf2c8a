module Engine = Dk_sim.Engine
module Framing = Dk_net.Framing
module Sga = Dk_mem.Sga
module Types = Demikernel.Types

module type S = sig
  type t
  type conn
  type msg
  type error

  val kernel_stack : bool
  val of_host :
    engine:Dk_sim.Engine.t -> cost:Dk_sim.Cost.t -> Sim_setup.host -> t
  val engine : t -> Dk_sim.Engine.t
  val cost : t -> Dk_sim.Cost.t
  val manager : t -> Dk_mem.Manager.t
  val io_stats : t -> Dk_kernel.Posix.stats
  val listen :
    t ->
    port:int ->
    framed:bool ->
    on_accept:(conn -> msg -> unit) ->
    (unit, error) result
  val connect :
    t -> dst:Dk_net.Addr.endpoint -> framed:bool -> (conn, error) result
  val push : t -> conn -> msg -> (unit, error) result
  val pop : t -> conn -> (msg, error) result
  val close : t -> conn -> unit
  val alloc : t -> string -> (msg, error) result
  val free : t -> msg -> unit
  val of_sga : Dk_mem.Sga.t -> msg
  val segments : msg -> string list
  val length : msg -> int
  val drop : msg -> unit
end

let ( let* ) = Result.bind

(* ---- Demikernel: atomic sga messages, nothing to frame ---- *)

module Demi = struct
  module D = Demikernel.Demi

  type t = D.t
  type conn = { qd : Types.qd; client : bool }
  type msg = Sga.t
  type error = Types.error

  let kernel_stack = false
  let of_host ~engine ~cost host = Sim_setup.demi_of_host ~engine ~cost host ()
  let engine = D.engine
  let cost = D.cost
  let manager = D.manager
  let io_stats _ = { Dk_kernel.Posix.syscalls = 0; bytes_copied = 0 }

  (* One pop outstanding per connection; the handler runs before the
     next pop is posted. *)
  let rec serve t c handle =
    match D.pop t c.qd with
    | Error _ -> ()
    | Ok tok ->
        D.watch t tok (function
          | Types.Popped m ->
              handle m;
              serve t c handle
          | Types.Failed _ -> (
              (* best-effort teardown: the peer is already gone *)
              match D.close t c.qd with Ok () | Error _ -> ())
          | Types.Pushed | Types.Accepted _ -> ())

  let listen t ~port ~framed:_ ~on_accept =
    let* lqd = D.socket t `Tcp in
    let* () = D.bind t lqd ~port in
    let* () = D.listen t lqd in
    let rec accept () =
      match D.accept_async t lqd with
      | Error _ -> ()
      | Ok tok ->
          D.watch t tok (function
            | Types.Accepted qd ->
                let c = { qd; client = false } in
                serve t c (on_accept c);
                accept ()
            | Types.Failed _ | Types.Pushed | Types.Popped _ -> ())
    in
    accept ();
    Ok ()

  let connect t ~dst ~framed:_ =
    let* qd = D.socket t `Tcp in
    let* () = D.connect t qd ~dst in
    Ok { qd; client = true }

  let ignore_result (_ : Types.op_result) = ()

  let push t c m =
    if c.client then
      match D.blocking_push t c.qd m with
      | Types.Pushed -> Ok ()
      | Types.Failed e -> Error e
      | Types.Popped _ | Types.Accepted _ -> Error `Queue_closed
    else
      match D.push t c.qd m with
      | Ok tok ->
          D.watch t tok ignore_result;
          Ok ()
      | Error e -> Error e

  let pop t c =
    match D.blocking_pop t c.qd with
    | Types.Popped m -> Ok m
    | Types.Failed e -> Error e
    | Types.Pushed | Types.Accepted _ -> Error `Queue_closed

  let close t c = match D.close t c.qd with Ok () | Error _ -> ()
  let alloc = D.sga_alloc
  let free = D.sga_free
  let of_sga m = m
  let segments sga = List.map Dk_mem.Buffer.to_string (Sga.segments sga)
  let length = Sga.length
  let drop = Sga.free
end

(* ---- byte streams: framing lives here and nowhere else ---- *)

(* Included by the POSIX and mTCP instances. A message is its segment
   list; a connection's decoder is [None] on a raw stream, where each
   chunk read is a message. *)
module Stream = struct
  type msg = string list

  let decoder ~framed = if framed then Some (Framing.create ()) else None

  let encode frames segs =
    match (frames, segs) with
    | Some _, _ -> Framing.encode segs
    | None, [ s ] -> s
    | None, _ -> String.concat "" segs

  (* Server side: a raw chunk is handled as it arrives; framed chunks
     wait in the decoder for [deliver_frames] at the end of the burst. *)
  let on_chunk frames handle s =
    match frames with None -> handle [ s ] | Some d -> Framing.feed d s

  let rec deliver_frames frames handle =
    match frames with
    | None -> ()
    | Some d -> (
        match Framing.next d with
        | Some m ->
            handle m;
            deliver_frames frames handle
        | None -> ())

  (* Client side: the next message, reading more of the stream with
     [read] until one is complete. *)
  let rec next_msg frames read =
    match frames with
    | None -> Result.map (fun s -> [ s ]) (read ())
    | Some d -> (
        match Framing.next d with
        | Some m -> Ok m
        | None ->
            let* s = read () in
            Framing.feed d s;
            next_msg frames read)

  let manager _ = Dk_mem.Manager.create ()
  let close _ _ = ()
  let alloc _ s = Ok [ s ]
  let free _ _ = ()

  (* The bytes are copied out, so the sga's buffers are let go at once. *)
  let of_sga sga =
    let segs = Demi.segments sga in
    Sga.free sga;
    segs

  let segments m = m
  let length m = List.fold_left (fun n s -> n + String.length s) 0 m
  let drop _ = ()
end

(* ---- POSIX sockets through the simulated kernel ---- *)

module Posix = struct
  module P = Dk_kernel.Posix
  include Stream

  type t = P.t
  type error = P.error

  type conn = {
    fd : P.fd;
    epfd : P.fd; (* the server's shared set, or the client's own *)
    frames : Framing.decoder option;
    buf : bytes; (* read buffer, shared by a server's connections *)
    client : bool;
    mutable out : string; (* reply bytes write() has not taken yet *)
    mutable out_armed : bool; (* [`Out] interest registered *)
    mutable handle : msg -> unit;
  }

  let kernel_stack = true
  let of_host ~engine ~cost host = Sim_setup.posix_of_host ~engine ~cost host
  let engine = P.engine
  let cost = P.cost
  let io_stats = P.stats

  (* A raw read takes all the 64 KB receive buffer can hold. Framed
     reads go 16 KB at a time, the read size E3's and E9's kv figures
     were measured with: a 64 KB value takes four reads. *)
  let chunk c = if Option.is_none c.frames then Bytes.length c.buf else 16384

  (* Write pending replies. A framed connection re-registers its
     interest after every write, [`Out] only while bytes remain; a raw
     one touches the set only when that interest changes. *)
  let flush t c =
    if c.out <> "" then begin
      (match P.write t c.fd c.out with
      | Ok n ->
          let len = String.length c.out in
          c.out <- (if n = len then "" else String.sub c.out n (len - n))
      | Error `Again -> ()
      | Error _ -> c.out <- "");
      let want = c.out <> "" in
      if Option.is_some c.frames || want <> c.out_armed then begin
        c.out_armed <- want;
        ignore (P.epoll_add t c.epfd c.fd (if want then [ `In; `Out ] else [ `In ]))
      end
    end

  let hang_up t conns c =
    P.epoll_del t c.epfd c.fd;
    Hashtbl.remove conns c.fd

  let rec readable t conns c =
    match P.read t c.fd c.buf 0 (chunk c) with
    | Ok 0 ->
        hang_up t conns c;
        P.close t c.fd
    | Ok n ->
        on_chunk c.frames c.handle (Bytes.sub_string c.buf 0 n);
        if Option.is_none c.frames then flush t c;
        readable t conns c
    | Error `Again ->
        deliver_frames c.frames c.handle;
        flush t c
    | Error _ -> hang_up t conns c

  let listen t ~port ~framed ~on_accept =
    let lsock = P.socket t in
    let* () = P.listen t lsock ~port in
    let epfd = P.epoll_create t in
    ignore (P.epoll_add t epfd lsock [ `In ]);
    let buf = Bytes.create 65536 in
    let conns = Hashtbl.create 16 in
    (* one connection per readiness event: the listening socket stays
       readable while more are pending *)
    let accept () =
      match P.accept t lsock with
      | Ok fd ->
          let c =
            { fd; epfd; frames = decoder ~framed; buf; client = false;
              out = ""; out_armed = false; handle = ignore }
          in
          c.handle <- on_accept c;
          Hashtbl.replace conns fd c;
          ignore (P.epoll_add t epfd fd [ `In ])
      | Error _ -> ()
    in
    let rec loop () =
      P.epoll_wait_block t epfd ~max:64 (fun events ->
          List.iter
            (fun (fd, ev) ->
              if fd = lsock then accept ()
              else
                match (Hashtbl.find_opt conns fd, ev) with
                | Some c, `In -> readable t conns c
                | Some c, `Out -> flush t c
                | None, _ -> ())
            events;
          loop ())
    in
    loop ();
    Ok ()

  let connect t ~dst ~framed =
    let fd = P.socket t in
    let* () = P.connect t fd ~dst in
    if not (Engine.run_until (P.engine t) (fun () -> P.connected t fd)) then
      Error `Connection_closed
    else begin
      let epfd = P.epoll_create t in
      ignore (P.epoll_add t epfd fd [ `In ]);
      Ok
        { fd; epfd; frames = decoder ~framed; buf = Bytes.create 65536;
          client = true; out = ""; out_armed = false; handle = ignore }
    end

  (* Partial writes continue; a full socket buffer runs the engine until
     it drains. *)
  let rec write_all t c data =
    if data = "" then Ok ()
    else
      match P.write t c.fd data with
      | Ok n -> write_all t c (String.sub data n (String.length data - n))
      | Error `Again ->
          if Engine.step (P.engine t) then write_all t c data else Error `Again
      | Error e -> Error e

  let push t c m =
    let data = encode c.frames m in
    if c.client then write_all t c data
    else begin
      c.out <- (if c.out = "" then data else c.out ^ data);
      Ok ()
    end

  (* One read; an empty socket blocks in epoll until it is readable. *)
  let rec read t c () =
    match P.read t c.fd c.buf 0 (chunk c) with
    | Ok 0 -> Error `Connection_closed
    | Ok n -> Ok (Bytes.sub_string c.buf 0 n)
    | Error `Again ->
        let woke = ref false in
        P.epoll_wait_block t c.epfd ~max:4 (fun _ -> woke := true);
        if Engine.run_until (P.engine t) (fun () -> !woke) then read t c ()
        else Error `Again
    | Error e -> Error e

  let pop t c = next_msg c.frames (read t c)
end

(* ---- mTCP: user-level batched TCP behind a POSIX-like API ---- *)

module Mtcp = struct
  module M = Dk_kernel.Mtcp
  include Stream

  type t = M.t
  type conn = { m : M.conn; frames : Framing.decoder option }
  type error = [ `In_use | `Refused | `Connection_closed ]

  let kernel_stack = false
  let of_host ~engine ~cost host = Sim_setup.mtcp_of_host ~engine ~cost host
  let engine = M.engine
  let cost = M.cost
  let io_stats t = { Dk_kernel.Posix.syscalls = 0; bytes_copied = M.bytes_copied t }
  let take m = M.recv m (M.recv_ready m)

  let listen t ~port ~framed ~on_accept =
    (M.listen t ~port ~on_accept:(fun m ->
         let c = { m; frames = decoder ~framed } in
         let handle = on_accept c in
         M.set_on_readable m (fun () ->
             on_chunk c.frames handle (take m);
             deliver_frames c.frames handle))
      :> (unit, error) result)

  let connect t ~dst ~framed =
    let m = M.connect t ~dst in
    let up = ref false and down = ref false in
    M.set_on_connect m (fun () -> up := true);
    M.set_on_close m (fun _ -> down := true);
    ignore (Engine.run_until (M.engine t) (fun () -> !up || !down));
    if !up then Ok { m; frames = decoder ~framed } else Error `Refused

  let push _ c msg =
    let data = encode c.frames msg in
    if M.send c.m data = String.length data then Ok ()
    else Error `Connection_closed

  let read t c () =
    if Engine.run_until (M.engine t) (fun () -> M.recv_ready c.m > 0) then
      Ok (take c.m)
    else Error `Connection_closed

  let pop t c = next_msg c.frames (read t c)
end

type 'a world = { duo : Sim_setup.duo; client : 'a; server : 'a }

let two_hosts (type a) (module D : S with type t = a) =
  let duo = Sim_setup.two_hosts ~kernel_stack:D.kernel_stack () in
  let on h = D.of_host ~engine:duo.Sim_setup.engine ~cost:duo.Sim_setup.cost h in
  let client = on duo.Sim_setup.a in
  let server = on duo.Sim_setup.b in
  { duo; client; server }

let server_endpoint w port = Sim_setup.endpoint w.duo.Sim_setup.b port
