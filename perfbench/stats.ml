(* Order statistics and per-op normalisation. *)

(* Fixed capacity, so recording never allocates and a run's heap does
   not depend on how many samples its time budget admitted. *)
type samples = { data : int array; mutable len : int }

let samples n = { data = Array.make (max n 1) 0; len = 0 }

let add s v =
  if s.len < Array.length s.data then begin
    s.data.(s.len) <- v;
    s.len <- s.len + 1
  end

let length s = s.len
let clear s = s.len <- 0

let to_array s = Array.sub s.data 0 s.len

let sorted s =
  let a = to_array s in
  Array.sort Int.compare a;
  a

(* Nearest rank: the smallest sample with at least [q] of the samples
   at or below it. *)
let rank n q = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile_sorted: no samples";
  a.(min n (rank n q) - 1)

let beyond n q = n - rank n q

let ladder = [ 0.5; 0.9; 0.99; 0.999; 0.9999; 0.99999 ]

let tail_quantile n =
  List.fold_left (fun acc q -> if beyond n q >= 10 then Some q else acc) None
    ladder

let median_float xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Stats.median_float: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per_op x ~ops = if ops <= 0 then 0.0 else float_of_int x /. float_of_int ops

let ratio a b = if b = 0.0 then 0.0 else a /. b

let max_over_mean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      ratio (List.fold_left Float.max neg_infinity xs) mean
