(* In-memory span recorder. Slots are allocated at [enter], so a span's
   parent slot is known when it opens and children always follow their
   parent in slot order. Recording touches only a flat int array. *)

let stride = 6
let f_name = 0
let f_start = 1
let f_stop = 2
let f_parent = 3
let f_req = 4
let f_words = 5

type t = {
  names : string array;
  mutable on : bool;
  buf : int array;
  cap : int;
  mutable len : int;
  mutable top : int;
  mutable req : int;
  sum_calls : int array;
  sum_ns : int array;
  sum_self : int array;
  sum_words : int array;
  mutable first : (int array * int) option;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

let create ~names ~capacity =
  let k = Array.length names in
  {
    names;
    on = false;
    buf = Array.make (capacity * stride) 0;
    cap = capacity;
    len = 0;
    top = -1;
    req = 0;
    sum_calls = Array.make k 0;
    sum_ns = Array.make k 0;
    sum_self = Array.make k 0;
    sum_words = Array.make k 0;
    first = None;
  }

let set_enabled t b = t.on <- b
let set_req t r = t.req <- r

(* Self time of every span in [buf.(0 .. n-1)]: its duration minus the
   union of its children's intervals clipped to its own. Children of a
   span open in start order, so one pass with a per-parent sweep end
   computes the union. *)
let self_times buf n =
  let self = Array.make n 0 in
  let reach = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = i * stride in
    self.(i) <- buf.(b + f_stop) - buf.(b + f_start);
    reach.(i) <- buf.(b + f_start)
  done;
  for i = 0 to n - 1 do
    let b = i * stride in
    let p = buf.(b + f_parent) in
    if p >= 0 then begin
      let pb = p * stride in
      let lo = max buf.(b + f_start) (max reach.(p) buf.(pb + f_start)) in
      let hi = min buf.(b + f_stop) buf.(pb + f_stop) in
      if hi > lo then self.(p) <- self.(p) - (hi - lo);
      if buf.(b + f_stop) > reach.(p) then reach.(p) <- buf.(b + f_stop)
    end
  done;
  self

let flush t =
  if t.len > 0 then begin
    let self = self_times t.buf t.len in
    for i = 0 to t.len - 1 do
      let b = i * stride in
      let k = t.buf.(b + f_name) in
      t.sum_calls.(k) <- t.sum_calls.(k) + 1;
      t.sum_ns.(k) <- t.sum_ns.(k) + t.buf.(b + f_stop) - t.buf.(b + f_start);
      t.sum_self.(k) <- t.sum_self.(k) + self.(i);
      t.sum_words.(k) <- t.sum_words.(k) + t.buf.(b + f_words)
    done;
    if Option.is_none t.first then
      t.first <- Some (Array.sub t.buf 0 (t.len * stride), t.len);
    t.len <- 0
  end

let enter t name =
  if t.on then begin
    if t.len = t.cap then failwith "Span.enter: span buffer full inside one tree";
    let b = t.len * stride in
    t.buf.(b + f_name) <- name;
    t.buf.(b + f_parent) <- t.top;
    t.buf.(b + f_req) <- t.req;
    t.buf.(b + f_words) <- minor_words ();
    t.top <- t.len;
    t.len <- t.len + 1;
    t.buf.(b + f_start) <- now_ns ()
  end

let leave t =
  if t.on then begin
    let stop = now_ns () in
    let b = t.top * stride in
    t.buf.(b + f_stop) <- stop;
    t.buf.(b + f_words) <- minor_words () - t.buf.(b + f_words);
    t.top <- t.buf.(b + f_parent);
    (* Aggregate only between trees, never with a span open. *)
    if t.top < 0 && 2 * t.len >= t.cap then flush t
  end

type agg = { calls : int; total_ns : int; self_ns : int; words : int }

let agg t name =
  {
    calls = t.sum_calls.(name);
    total_ns = t.sum_ns.(name);
    self_ns = t.sum_self.(name);
    words = t.sum_words.(name);
  }

(* Chrome trace-event JSON ("X" complete events, microsecond floats),
   loadable in chrome://tracing and Perfetto. *)
let chrome_json names buf n =
  let out = Buffer.create (n * 120) in
  Buffer.add_string out "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let t0 = if n > 0 then buf.(f_start) else 0 in
  for i = 0 to n - 1 do
    let b = i * stride in
    if i > 0 then Buffer.add_char out ',';
    Printf.bprintf out
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"req\":%d,\"words\":%d}}"
      names.(buf.(b + f_name))
      (float_of_int (buf.(b + f_start) - t0) /. 1e3)
      (float_of_int (buf.(b + f_stop) - buf.(b + f_start)) /. 1e3)
      i buf.(b + f_parent) buf.(b + f_req) buf.(b + f_words)
  done;
  Buffer.add_string out "]}\n";
  Buffer.contents out

let export t path ~limit =
  match t.first with
  | None -> ()
  | Some (buf, n) ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (chrome_json t.names buf (min n limit)))
