(* bench_diff — gate on virtual-time regressions in the bench tables.

   Usage: bench_diff.exe BASELINE_DIR FRESH_DIR [MAX_RATIO] [PCTL_RATIO]

   Loads every BENCH_e*.json in BASELINE_DIR, finds the same file in
   FRESH_DIR, and compares the headline virtual-time metrics: every
   numeric cell in a column whose header names nanoseconds ("p50(ns)",
   "total ns", "ns/buffer", ...). A fresh value more than MAX_RATIO
   times the baseline (default 1.25, i.e. a >25% regression) fails the
   run; so does a missing file, table, column or row — baselines are
   regenerated deliberately, never drifted past.

   Latency-percentile columns — headers of the form p<digits>, e.g.
   "p50(ns)", "p99(ns)", "p99.9(ns)" — are the SLO gate and take the
   separate PCTL_RATIO bound (same 1.25 default). Tail percentiles
   amplify queueing shifts that leave sums untouched, so CI can pin
   them tighter (or looser, for an intentionally tail-heavy change)
   without moving the virtual-time bound, via DK_BENCH_PCTL_MAX_RATIO
   in bench_diff.sh.

   The simulation is deterministic, so on an unchanged tree fresh ==
   baseline exactly; the 25% headroom is for intentional cost-model or
   datapath changes, which should land with regenerated baselines and
   an explanation. BENCH_micro.json is wall-clock and never compared.

   Before the gate, a drift report prints every table cell and every
   obs value that differs from the baseline (or exists on one side
   only), one line each. Drift never fails the run; it makes a claim
   that a change left the benches byte-identical checkable.

   No JSON library in the switch: the minimal reader below mirrors the
   one in test/test_obs.ml. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then raise (Bad "eof");
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    let g = next () in
    if g <> c then raise (Bad (Printf.sprintf "expected %c, got %c" c g))
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
          match next () with
          | ('"' | '\\' | '/') as c ->
              Buffer.add_char b c;
              go ()
          | 'n' ->
              Buffer.add_char b '\n';
              go ()
          | 't' ->
              Buffer.add_char b '\t';
              go ()
          | 'r' ->
              Buffer.add_char b '\r';
              go ()
          | 'b' ->
              Buffer.add_char b '\b';
              go ()
          | 'u' ->
              pos := !pos + 4;
              Buffer.add_char b '?';
              go ()
          | c -> raise (Bad (Printf.sprintf "escape %c" c)))
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      incr pos
    done;
    if !pos = start then raise (Bad "number");
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "object %c" c))
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (
          incr pos;
          Arr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match next () with
            | ',' -> elements (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "array %c" c))
          in
          elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> raise (Bad "eof")
  in
  let v = value () in
  skip_ws ();
  v

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* ---- headline-metric extraction ---- *)

(* A column is virtual-time iff its header contains "ns" as a whole
   word ("p50(ns)", "total ns", "ns/buffer", "cpu ns/msg") — substring
   matching would also catch "inspections". *)
let is_ns_header h =
  let len = String.length h in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let rec go i =
    if i + 2 > len then false
    else if
      h.[i] = 'n'
      && h.[i + 1] = 's'
      && (i = 0 || not (is_word h.[i - 1]))
      && (i + 2 = len || not (is_word h.[i + 2]))
    then true
    else go (i + 1)
  in
  go 0

(* A column is a latency percentile iff its header is "p" followed by a
   digit ("p50(ns)", "p99.9(ns)") — the SLO columns every experiment
   emits through Report.table. *)
let is_pctl_header h =
  String.length h >= 2 && h.[0] = 'p' && h.[1] >= '0' && h.[1] <= '9'

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let as_arr = function Arr l -> l | _ -> raise (Bad "expected array")
let as_str = function Str s -> s | _ -> raise (Bad "expected string")

(* [(table index, row index, row label, column header, cell)] for
   every cell of every table; a row's label is its first cell. *)
let table_cells doc =
  let tables = match member "tables" doc with Some t -> as_arr t | None -> [] in
  List.concat
    (List.mapi
       (fun ti table ->
         let head =
           match member "head" table with
           | Some h -> List.map as_str (as_arr h)
           | None -> []
         in
         let rows =
           match member "rows" table with Some r -> as_arr r | None -> []
         in
         List.concat
           (List.mapi
              (fun ri row ->
                let cells = List.map as_str (as_arr row) in
                let label = match cells with l :: _ -> l | [] -> "?" in
                List.concat
                  (List.mapi
                     (fun ci cell ->
                       match List.nth_opt head ci with
                       | Some h -> [ (ti, ri, label, h, cell) ]
                       | None -> [])
                     cells))
              rows))
       tables)

(* [(metric key, (value, is_percentile))] for every ns-column cell of
   every table. The key embeds the table index, column header and the
   row's first cell (its label), so renumbered rows do not silently
   compare the wrong cells. *)
let headline_metrics doc =
  List.filter_map
    (fun (ti, _, label, h, cell) ->
      if not (is_ns_header h) then None
      else
        Option.map
          (fun v -> (Printf.sprintf "t%d[%s].%s" ti label h, (v, is_pctl_header h)))
          (float_of_string_opt cell))
    (table_cells doc)

(* ---- drift report ----
   Every table cell and every leaf of the obs snapshot, keyed by where
   it sits. A deterministic simulation reproduces its baselines
   exactly, so any difference here is a behaviour change, even one the
   ratio gates let through; it is printed, not failed on. *)

let rec leaves prefix = function
  | Obj fields -> List.concat_map (fun (k, v) -> leaves (prefix ^ "." ^ k) v) fields
  | Arr l -> List.concat (List.mapi (fun i v -> leaves (Printf.sprintf "%s[%d]" prefix i) v) l)
  | Str s -> [ (prefix, s) ]
  | Num f -> [ (prefix, Printf.sprintf "%.17g" f) ]
  | Bool b -> [ (prefix, string_of_bool b) ]
  | Null -> [ (prefix, "null") ]

let values doc =
  List.map
    (fun (ti, ri, label, h, cell) -> (Printf.sprintf "t%d.r%d[%s].%s" ti ri label h, cell))
    (table_cells doc)
  @ match member "obs" doc with Some o -> leaves "obs" o | None -> []

(* Prints one line per changed, added or removed value; returns how
   many. *)
let report_drift file base fresh =
  let drifted = ref 0 in
  let report key b f =
    Printf.printf "drift %s %s: %s -> %s\n" file key b f;
    incr drifted
  in
  let fresh_tbl = Hashtbl.create 256 and base_tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace fresh_tbl k v) fresh;
  List.iter (fun (k, v) -> Hashtbl.replace base_tbl k v) base;
  List.iter
    (fun (k, b) ->
      match Hashtbl.find_opt fresh_tbl k with
      | Some f when String.equal f b -> ()
      | Some f -> report k b f
      | None -> report k b "(absent)")
    base;
  List.iter
    (fun (k, f) -> if not (Hashtbl.mem base_tbl k) then report k "(absent)" f)
    fresh;
  !drifted

let () =
  let baseline_dir, fresh_dir, max_ratio, pctl_ratio =
    match Array.to_list Sys.argv with
    | [ _; b; f ] -> (b, f, 1.25, 1.25)
    | [ _; b; f; r ] -> (b, f, float_of_string r, float_of_string r)
    | [ _; b; f; r; p ] -> (b, f, float_of_string r, float_of_string p)
    | _ ->
        prerr_endline
          "usage: bench_diff.exe BASELINE_DIR FRESH_DIR [MAX_RATIO] \
           [PCTL_RATIO]";
        exit 2
  in
  let baselines =
    Sys.readdir baseline_dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 7
           && String.sub f 0 7 = "BENCH_e"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if baselines = [] then (
    Printf.eprintf "bench_diff: no BENCH_e*.json baselines in %s\n" baseline_dir;
    exit 2);
  let failures = ref 0 in
  let compared = ref 0 in
  let drifted = ref 0 in
  List.iter
    (fun file ->
      let bpath = Filename.concat baseline_dir file in
      let fpath = Filename.concat fresh_dir file in
      if not (Sys.file_exists fpath) then (
        Printf.eprintf "FAIL %s: fresh run produced no %s\n" file file;
        incr failures)
      else
        let bdoc = parse_json (read_file bpath) in
        let fdoc = parse_json (read_file fpath) in
        drifted := !drifted + report_drift file (values bdoc) (values fdoc);
        let base = headline_metrics bdoc in
        let fresh = headline_metrics fdoc in
        List.iter
          (fun (key, (bv, pctl)) ->
            match List.assoc_opt key fresh with
            | None ->
                Printf.eprintf "FAIL %s %s: metric missing from fresh run\n"
                  file key;
                incr failures
            | Some (fv, _) ->
                incr compared;
                let allowed = if pctl then pctl_ratio else max_ratio in
                if bv > 0. && fv > bv *. allowed then (
                  Printf.eprintf
                    "FAIL %s %s%s: %.0fns -> %.0fns (%.2fx > %.2fx allowed)\n"
                    file key
                    (if pctl then " [pctl]" else "")
                    bv fv (fv /. bv) allowed;
                  incr failures))
          base)
    baselines;
  Printf.printf "bench_diff: %d value(s) drifted from the baselines (report only)\n"
    !drifted;
  Printf.printf "bench_diff: %d headline metrics compared across %d files, %d regression(s)\n"
    !compared (List.length baselines) !failures;
  if !failures > 0 then exit 1
