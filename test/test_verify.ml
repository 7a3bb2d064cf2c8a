(* Tests for the verify family's typestate/dataflow engine.

   The fixture corpus (tools/analysis/fixtures/verify, checked through
   Fixture_harness) is the contract. On top of the corpus, unit tests
   pin down the per-rule behaviors (escape-stops-tracking, allowlist
   subtraction, stale detection, parse errors). *)

module H = Fixture_harness

let corpus =
  H.corpus "verify"
    (List.concat_map (fun (path, str) -> Verify_engine.check ~path str))

(* ---------------- unit behaviors ---------------- *)

let scan src =
  let path, str = H.parse "examples/x.ml" src in
  Verify_engine.check ~path str

let rules = H.rules

let escape_stops_tracking () =
  (* a qd handed to an unknown function carries no close obligation *)
  let fs =
    scan
      "let f demi handoff =\n\
      \  match Demi.socket demi `Tcp with\n\
      \  | Ok qd -> handoff qd\n\
      \  | Error _ -> ()\n"
  in
  Alcotest.(check int) "no findings after escape" 0 (List.length fs)

let closure_capture_escapes_but_body_checked () =
  (* capture releases the outer obligation, yet code inside the closure
     is still analyzed: the inner discard must fire *)
  let fs =
    scan
      "let f demi reg =\n\
      \  match Demi.socket demi `Tcp with\n\
      \  | Ok qd -> reg (fun () -> ignore (Demi.close demi qd))\n\
      \  | Error _ -> ()\n"
  in
  Alcotest.(check (list string)) "only the inner ignore fires"
    [ "ignored-result" ] (rules fs)

let underscore_binding_untracked () =
  let fs =
    scan
      "let must = function Ok v -> v | Error _ -> assert false\n\
       let f demi =\n\
      \  let _scratch = must (Demi.socket demi `Tcp) in\n\
      \  ()\n"
  in
  Alcotest.(check int) "deliberate _-prefixed discard allowed" 0
    (List.length fs)

let allowlist_subtracts_and_detects_stale () =
  let findings = H.findings_in corpus "bad_token.ml" in
  Alcotest.(check bool) "corpus yields findings" true (findings <> []);
  let path = (List.hd findings).Tool_common.path in
  let file = Filename.temp_file "verify_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Printf.fprintf oc "# comment\ntoken-linear %s\nqd-typestate %s\n" path
        path;
      close_out oc;
      let allow = Tool_common.load_allowlist file in
      let kept, stale = Tool_common.apply_allowlist allow findings in
      Alcotest.(check int) "token-linear findings all suppressed" 0
        (List.length
           (List.filter (fun f -> f.Tool_common.rule = "token-linear") kept));
      Alcotest.(check (list string)) "qd-typestate entry is stale"
        [ "qd-typestate" ]
        (List.map (fun e -> e.Tool_common.a_rule) stale))

let () =
  Alcotest.run "dk-verify"
    (H.groups corpus
    @ [
        ( "engine behaviors",
          [
            Alcotest.test_case "all four rule families covered" `Quick
              (H.rules_covered corpus
                 [ "qd-typestate"; "token-linear"; "sga-ownership";
                   "ignored-result" ]);
            Alcotest.test_case "escape stops tracking" `Quick
              escape_stops_tracking;
            Alcotest.test_case "closure body still checked" `Quick
              closure_capture_escapes_but_body_checked;
            Alcotest.test_case "underscore binding untracked" `Quick
              underscore_binding_untracked;
            Alcotest.test_case "parse error reported" `Quick
              H.parse_error_once;
            Alcotest.test_case "scan_dirs walks fixtures" `Quick
              (H.scan_dirs_walks corpus);
            Alcotest.test_case "allowlist subtract + stale" `Quick
              allowlist_subtracts_and_detects_stale;
          ] );
      ])
