(* A fixed allocation-heavy OCaml loop, timed between measured blocks to
   read how fast the shared machine runs right now. *)

(* Iterations per second of [iteration] that count as nominal speed:
   about its median rate on the 2-vCPU VM the bounds were set on. *)
let nominal_per_s = 20_000.0

let iteration () =
  let acc = ref 0 in
  for k = 0 to 63 do
    let l = List.init 64 (fun i -> (i, k)) in
    acc := !acc + List.fold_left (fun a (x, y) -> a + (x * y)) 0 l
  done;
  ignore (Sys.opaque_identity !acc)

(* A reading is a fixed number of iterations, about 10 ms at nominal
   speed, so it allocates the same amount every time and moves the
   collector's schedule the same way on a fast or a slow machine. *)
let iterations = 200

let speed () =
  let start = Span.now_ns () in
  for _ = 1 to iterations do
    iteration ()
  done;
  let el = Span.now_ns () - start in
  float_of_int iterations /. (float_of_int el /. 1e9) /. nominal_per_s
