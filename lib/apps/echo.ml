module Engine = Dk_sim.Engine

(* Matches rather than [let*] in the round loop: each bind would
   allocate a closure per round trip. *)
module Make (D : Datapath.S) = struct
  let start_server t ~port =
    D.listen t ~port ~framed:false ~on_accept:(fun c m -> ignore (D.push t c m))

  let rtt t ~dst ~size ~rounds =
    match D.connect t ~dst ~framed:false with
    | Error e -> Error e
    | Ok c ->
        let engine = D.engine t in
        let hist = Dk_sim.Histogram.create () in
        let payload = String.make size 'e' in
        (* A stream may return the echo in pieces; all but the last are
           freed as they arrive. *)
        let rec await got =
          match D.pop t c with
          | Error _ as e -> e
          | Ok r as ok ->
              let got = got + D.length r in
              if got >= size then ok
              else begin
                D.free t r;
                await got
              end
        in
        let rec round i =
          if i > rounds then Ok hist
          else
            match D.alloc t payload with
            | Error e -> Error e
            | Ok m -> (
                let t0 = Engine.now engine in
                match D.push t c m with
                | Error e -> Error e
                | Ok () -> (
                    match await 0 with
                    | Error e -> Error e
                    | Ok last ->
                        Dk_sim.Histogram.record hist
                          (Int64.sub (Engine.now engine) t0);
                        D.free t last;
                        D.free t m;
                        round (i + 1)))
        in
        let result = round 1 in
        D.close t c;
        result
end

module Over_demi = Make (Datapath.Demi)
module Over_posix = Make (Datapath.Posix)

let start_demi_server ~demi ~port = Over_demi.start_server demi ~port
let demi_rtt ~demi ~dst ~size ~rounds = Over_demi.rtt demi ~dst ~size ~rounds
let start_posix_server ~posix ~port = Over_posix.start_server posix ~port

let posix_rtt ~posix ~engine:_ ~dst ~size ~rounds =
  Over_posix.rtt posix ~dst ~size ~rounds
