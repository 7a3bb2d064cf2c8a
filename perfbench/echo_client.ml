(* Closed-loop echo clients with one request outstanding: Demikernel
   queues (push/pop/wait) against [Echo.start_demi_server], and POSIX
   sockets (write/read/epoll) against [Echo.start_posix_server]. Every
   reply is compared byte for byte with the request. *)

module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Setup = Dk_apps.Sim_setup
module Echo = Dk_apps.Echo
module Posix = Dk_kernel.Posix
module Engine = Dk_sim.Engine
module Sga = Dk_mem.Sga
module L = Layers

let port = 7

(* Virtual time a wait may take before the request counts as timed
   out: far above any RTT of these workloads. *)
let timeout_ns = 100_000_000L

type conn =
  | Bypass of { demi : Demi.t; qd : Types.qd }
  | Kernel of {
      posix : Posix.t;
      peer : Posix.t;
      fd : Posix.fd;
      epfd : Posix.fd;
      woke : bool ref;
      on_ready : (Posix.fd * Posix.event) list -> unit;
    }

type t = {
  engine : Engine.t;
  conn : conn;
  spans : Span.t;
  scratch : Bytes.t;
  mutable steps : int;
  mutable failure : string;
}

let engine t = t.engine
let steps t = t.steps
let failure t = t.failure

let posix_stats t =
  match t.conn with
  | Bypass _ -> None
  | Kernel k -> Some (Posix.stats k.posix, Posix.stats k.peer)

let ( let* ) = Result.bind

let make engine conn ~spans ~size =
  { engine; conn; spans; scratch = Bytes.create (max size 1); steps = 0;
    failure = "" }

let setup_bypass ?(server = Echo.start_demi_server) ~spans ~size () =
  let duo = Setup.two_hosts () in
  let engine = duo.Setup.engine and cost = duo.Setup.cost in
  let demi = Setup.demi_of_host ~engine ~cost duo.Setup.a () in
  let srv = Setup.demi_of_host ~engine ~cost duo.Setup.b () in
  let err what e = what ^ ": " ^ Types.error_to_string e in
  let* () = Result.map_error (err "server start") (server ~demi:srv ~port) in
  let* qd = Result.map_error (err "socket") (Demi.socket demi `Tcp) in
  let* () =
    Result.map_error (err "connect")
      (Demi.connect demi qd ~dst:(Setup.endpoint duo.Setup.b port))
  in
  Ok (make engine (Bypass { demi; qd }) ~spans ~size)

let setup_kernel ~spans ~size () =
  let duo = Setup.two_hosts ~kernel_stack:true () in
  let engine = duo.Setup.engine and cost = duo.Setup.cost in
  let posix = Setup.posix_of_host ~engine ~cost duo.Setup.a in
  let peer = Setup.posix_of_host ~engine ~cost duo.Setup.b in
  let* () =
    Result.map_error
      (fun _ -> "server start")
      (Echo.start_posix_server ~posix:peer ~port)
  in
  let fd = Posix.socket posix in
  let* () =
    Result.map_error
      (fun _ -> "connect")
      (Posix.connect posix fd ~dst:(Setup.endpoint duo.Setup.b port))
  in
  if not (Engine.run_until engine (fun () -> Posix.connected posix fd)) then
    Error "connect: never established"
  else
    let epfd = Posix.epoll_create posix in
    let* () =
      Result.map_error (fun _ -> "epoll_add") (Posix.epoll_add posix epfd fd [ `In ])
    in
    let woke = ref false in
    let on_ready _ = woke := true in
    Ok (make engine (Kernel { posix; peer; fd; epfd; woke; on_ready }) ~spans ~size)

(* A failed round returns -1 and keeps the first reason. *)
let fail t what =
  if t.failure = "" then t.failure <- what;
  -1

(* Whether the scratch buffer starts with [payload]; no allocation. *)
let scratch_holds t payload =
  let rec eq i =
    i = String.length payload
    || (Bytes.unsafe_get t.scratch i = String.unsafe_get payload i && eq (i + 1))
  in
  eq 0

let same_bytes t reply payload =
  Sga.length reply = String.length payload
  && begin
       ignore (Sga.copy_into reply t.scratch 0);
       scratch_holds t payload
     end

let elapsed t t0 = Int64.to_int (Int64.sub (Engine.now t.engine) t0)

let free t demi sga =
  Span.enter t.spans L.sga_free;
  Demi.sga_free demi sga;
  Span.leave t.spans

let wait t demi tok =
  Span.enter t.spans L.wait;
  let r = Demi.wait_timeout demi tok ~timeout:timeout_ns in
  Span.leave t.spans;
  r

let bypass_round t demi qd payload =
  let sp = t.spans in
  Span.enter sp L.sga_alloc;
  let a = Demi.sga_alloc demi payload in
  Span.leave sp;
  match a with
  | Error _ -> fail t "sga_alloc failed"
  | Ok sga -> (
      let t0 = Engine.now t.engine in
      Span.enter sp L.push;
      let p = Demi.push demi qd sga in
      Span.leave sp;
      match p with
      | Error _ -> fail t "push refused"
      | Ok ptok -> (
          match wait t demi ptok with
          | Types.Pushed -> (
              Span.enter sp L.pop;
              let q = Demi.pop demi qd in
              Span.leave sp;
              match q with
              | Error _ -> fail t "pop refused"
              | Ok qtok -> (
                  match wait t demi qtok with
                  | Types.Popped reply ->
                      let rtt = elapsed t t0 in
                      let ok = same_bytes t reply payload in
                      free t demi reply;
                      free t demi sga;
                      if ok then rtt else fail t "reply differs from request"
                  | Types.Failed `Timeout -> fail t "pop timed out"
                  | Types.Failed _ | Types.Pushed | Types.Accepted _ ->
                      fail t "pop failed"))
          | Types.Failed `Timeout -> fail t "push timed out"
          | Types.Failed _ | Types.Popped _ | Types.Accepted _ ->
              fail t "push failed"))

(* Engine steps the benchmark drives itself (the kernel client sleeps
   in epoll and the simulation must run until it is woken). *)
let step t =
  Span.enter t.spans L.step;
  let more = Engine.step t.engine in
  Span.leave t.spans;
  t.steps <- t.steps + 1;
  more

let rec run_until_woke t woke = !woke || (step t && run_until_woke t woke)

let kernel_round t posix fd epfd woke on_ready payload =
  let sp = t.spans in
  let n = String.length payload in
  let t0 = Engine.now t.engine in
  let rec write_from off =
    off >= n
    ||
    let data = if off = 0 then payload else String.sub payload off (n - off) in
    Span.enter sp L.k_write;
    let r = Posix.write posix fd data in
    Span.leave sp;
    match r with
    | Ok k -> write_from (off + k)
    | Error `Again -> step t && write_from off
    | Error _ -> false
  in
  let rec read_from got =
    if got >= n then `Done
    else begin
      Span.enter sp L.k_read;
      let r = Posix.read posix fd t.scratch got (n - got) in
      Span.leave sp;
      match r with
      | Ok 0 -> `Closed
      | Ok k -> read_from (got + k)
      | Error `Again ->
          woke := false;
          Span.enter sp L.k_epoll;
          Posix.epoll_wait_block posix epfd ~max:4 on_ready;
          Span.leave sp;
          if run_until_woke t woke then read_from got else `Stalled
      | Error _ -> `Error
    end
  in
  if not (write_from 0) then fail t "write failed"
  else
    match read_from 0 with
    | `Done ->
        let rtt = elapsed t t0 in
        if scratch_holds t payload then rtt else fail t "reply differs from request"
    | `Closed -> fail t "connection closed"
    | `Stalled -> fail t "read never became ready"
    | `Error -> fail t "read failed"

let round t payload =
  match t.conn with
  | Bypass { demi; qd } -> bypass_round t demi qd payload
  | Kernel { posix; fd; epfd; woke; on_ready; _ } ->
      kernel_round t posix fd epfd woke on_ready payload
