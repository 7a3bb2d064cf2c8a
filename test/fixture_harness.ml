(* The FLAG-fixture harness shared by the verify, shard and hot suites.

   A corpus lives under tools/analysis/fixtures/<family>/ and is the
   family's contract: every [(* FLAG rule ... *)] marker in a bad_*.ml
   names a finding the family must produce on exactly that line, every
   good_*.ml must come up empty, and per file the two (line, rule) sets
   must match exactly — no extra findings tolerated either way. The
   corpus is parsed once and handed to the family as one program (the
   shard and hot rules are cross-file; verify checks file by file). *)

module T = Tool_common

let parse path src =
  match T.parse ~path src with
  | Ok str -> (path, str)
  | Error f -> Alcotest.failf "fixture does not parse: %s" (T.pp_finding f)

let parsed sources = List.map (fun (path, src) -> parse path src) sources
let rules fs = List.sort_uniq compare (List.map (fun f -> f.T.rule) fs)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

type corpus = { dir : string; findings : T.finding list Lazy.t }

let corpus family analyze =
  let dir = "../tools/analysis/fixtures/" ^ family in
  let load () =
    T.ml_files [ dir ]
    |> List.map (fun f -> (f, T.read_file f))
    |> parsed |> analyze
  in
  { dir; findings = Lazy.from_fun load }

let fixtures c prefix =
  Sys.readdir c.dir |> Array.to_list
  |> List.filter (fun f ->
         T.starts_with ~prefix f && String.length f > String.length prefix
         && Filename.check_suffix f ".ml")
  |> List.sort compare

let findings_in c file =
  List.filter
    (fun f -> Filename.basename f.T.path = file)
    (Lazy.force c.findings)

(* [(* FLAG rule ... *)] markers: expected (line, rule) pairs. *)
let expected_flags src =
  let re = Str.regexp "(\\* FLAG \\([a-z- ]+\\)\\*)" in
  let out = ref [] in
  List.iteri
    (fun i line ->
      try
        ignore (Str.search_forward re line 0);
        let rules = String.trim (Str.matched_group 1 line) in
        List.iter
          (fun r -> out := (i + 1, r) :: !out)
          (String.split_on_char ' ' rules)
      with Not_found -> ())
    (String.split_on_char '\n' src);
  List.sort compare !out

let pairs fs = List.sort compare (List.map (fun f -> (f.T.line, f.T.rule)) fs)
let pair_list = Alcotest.(list (pair int string))

let bad_fixture_exact c file () =
  let expected = expected_flags (T.read_file (Filename.concat c.dir file)) in
  Alcotest.(check bool) "fixture seeds at least one violation" true
    (expected <> []);
  Alcotest.check pair_list "every seeded violation flagged, nothing else"
    expected
    (pairs (findings_in c file))

let good_fixture_clean c file () =
  let got = findings_in c file in
  List.iter (fun f -> Printf.printf "unexpected: %s\n" (T.pp_finding f)) got;
  Alcotest.check pair_list "clean fixture has zero findings" [] (pairs got)

let groups c =
  let cases prefix test =
    List.map
      (fun f -> Alcotest.test_case f `Quick (test c f))
      (fixtures c prefix)
  in
  [
    ("bad fixtures (exact flag match)", cases "bad_" bad_fixture_exact);
    ("good fixtures (zero findings)", cases "good_" good_fixture_clean);
  ]

let rules_covered c expected () =
  let got = rules (Lazy.force c.findings) in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " covered by corpus") true (List.mem r got))
    expected

(* The driver walks and reads the corpus directory without filesystem
   surprises: its file count matches the corpus. *)
let scan_dirs_walks c () =
  let _, n = Analysis.scan [ c.dir ] in
  Alcotest.(check int) "scans every fixture"
    (List.length (fixtures c "bad_") + List.length (fixtures c "good_"))
    n

(* A source under lib/ is read by all four families; when it does not
   parse, the one parse reports it once — not once per family. *)
let parse_error_once () =
  let fs =
    Analysis.scan_sources
      ~files:[ "lib/broken.ml"; "lib/broken.mli" ]
      [ ("lib/broken.ml", "let f = (\n") ]
  in
  Alcotest.(check (list string)) "exactly one parse-error finding"
    [ "parse-error" ]
    (List.map (fun f -> f.T.rule) fs)
