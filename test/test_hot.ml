(* Tests for the hot family's interprocedural cost analysis.

   The fixture corpus (tools/analysis/fixtures/hot, checked through
   Fixture_harness) is the contract, analyzed as ONE program because
   the rules are cross-file: bad_alloc_chain.ml is charged for a
   string append that lives in good_chain_helper.ml. On top of the
   corpus, unit tests pin down the cost-specific engine behavior:
   by-name roots, cross-file chains, the exemption being local to the
   annotated function, static-closure precision, and the allowlist
   contract every family shares. *)

module H = Fixture_harness

let corpus =
  H.corpus "hot" (fun files ->
      Hot_engine.findings (Hot_engine.analyze_files files))

(* ---------------- engine behaviors ---------------- *)

let analyze name src = Hot_engine.analyze_files (H.parsed [ (name, src) ])
let rules = H.rules
let contains = H.contains

let surface_rooted_by_name () =
  (* Nic.receive is on the per-op surface by (module, name), no
     attribute needed; the tuple it builds is charged to it *)
  let prog = analyze "nic.ml" "let receive t frame = (t, frame)\n" in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  Alcotest.(check int) "at the root definition" 1 (List.hd fs).Tool_common.line;
  match Hot_engine.inventory prog with
  | [ r ] ->
      Alcotest.(check string) "kind is rx-delivery" "rx-delivery"
        r.Hot_engine.r_kind
  | inv ->
      Alcotest.fail (Printf.sprintf "expected one root, got %d" (List.length inv))

let cross_file_chain_charged_at_root () =
  let prog =
    Hot_engine.analyze_files
      (H.parsed
         [
           ("render.ml", "let label n = string_of_int n ^ \"!\"\n");
           ("pump.ml", "let deliver n = ignore (Render.label n)\n[@@hot]\n");
         ])
  in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check string) "reported in the root's file" "pump.ml"
    f.Tool_common.path;
  Alcotest.(check bool) "chain crosses the module boundary" true
    (contains ~sub:"Render.label" f.Tool_common.message
    && contains ~sub:"^" f.Tool_common.message)

let annotation_exempts_own_allocs_only () =
  (* [@@hot.alloc] strips the annotated function's own allocations;
     its callees' allocations still propagate to the root *)
  let prog =
    analyze "ann.ml"
      "let pair a b = (a, b)\n\
       let emit a b = (fst (pair a b), 0)\n\
       [@@hot.alloc \"the handle pair is the API's return surface\"]\n\
       let push a b = ignore (emit a b)\n\
       [@@hot]\n"
  in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check int) "at the root, not the annotated hop" 4
    f.Tool_common.line;
  Alcotest.(check bool) "witness is the unannotated callee" true
    (contains ~sub:"Ann.pair" f.Tool_common.message)

let capture_free_lambda_is_static () =
  (* a lambda with no captures is a static closure, allocated once at
     module init: only the capturing one is charged *)
  let prog =
    analyze "cb.ml"
      "let register cb = ignore cb\n\
       let step t = register (fun x -> x + t)\n\
       [@@hot]\n\
       let idle () = register (fun x -> x + 1)\n\
       [@@hot]\n"
  in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  Alcotest.(check int) "only the capturing lambda's root" 2
    (List.hd fs).Tool_common.line

let one_finding_per_family_per_root () =
  (* two distinct allocations under one root collapse into a single
     hot-alloc diagnostic: the budget is the root's *)
  let prog =
    analyze "many.ml"
      "let a x = [ x ]\n\
       let b x = (x, x)\n\
       let push x = ignore (a x); ignore (b x)\n\
       [@@hot]\n"
  in
  Alcotest.(check int) "one finding" 1
    (List.length (Hot_engine.findings prog))

let inventory_lists_roots () =
  let prog = analyze "demi.ml" "let pop t = t\nlet spin t = t\n[@@hot]\n" in
  let inv = Hot_engine.inventory prog in
  Alcotest.(check int) "two roots" 2 (List.length inv);
  let kinds = List.map (fun r -> r.Hot_engine.r_kind) inv in
  Alcotest.(check bool) "table root and attribute root" true
    (List.mem "demi-api" kinds && List.mem "annotated" kinds);
  Alcotest.(check bool) "json carries the kind" true
    (contains ~sub:"\"demi-api\"" (Hot_engine.inventory_json inv));
  Alcotest.(check bool) "table carries the key" true
    (contains ~sub:"Demi.spin" (Hot_engine.inventory_table inv))

(* ---------------- allowlist contract ---------------- *)

(* One copy of the allowlist semantics serves all four families
   (Tool_common.apply_allowlist): a matching entry suppresses, a stale
   entry is reported back and fails the run. Exercised here against
   real hot-family corpus findings. *)
let allowlist_suppresses_and_reports_stale () =
  let findings = Lazy.force corpus.H.findings in
  let victim =
    List.find (fun f -> f.Tool_common.rule = "hot-alloc") findings
  in
  let allow =
    [
      {
        Tool_common.a_rule = "hot-alloc";
        a_path = victim.Tool_common.path;
        used = false;
      };
      { Tool_common.a_rule = "hot-poly"; a_path = "lib/gone.ml"; used = false };
    ]
  in
  let kept, stale = Tool_common.apply_allowlist allow findings in
  Alcotest.(check bool) "covered findings suppressed" true
    (not
       (List.exists
          (fun f ->
            f.Tool_common.rule = "hot-alloc"
            && f.Tool_common.path = victim.Tool_common.path)
          kept));
  Alcotest.(check (list string)) "the dead entry is stale" [ "hot-poly" ]
    (List.map (fun e -> e.Tool_common.a_rule) stale)

let shipped_allowlist_has_no_ast_family_entry () =
  (* the acceptance bar for the hot, shard and verify families: real
     findings get fixed or classified at the site, never allowlisted
     away — the shared allowlist holds lint entries only *)
  let ast_rule r =
    List.mem r
      [ "parse-error"; "qd-typestate"; "token-linear"; "sga-ownership";
        "ignored-result"; "shard-state"; "det-source"; "poll-blocking";
        "hot-alloc"; "hot-complexity"; "hot-poly"; "hot-annotation" ]
  in
  Alcotest.(check (list string)) "no verify/shard/hot entry" []
    (Tool_common.load_allowlist "../tools/analysis/allowlist.txt"
    |> List.map (fun e -> e.Tool_common.a_rule)
    |> List.filter ast_rule)

let () =
  Alcotest.run "dk-hot"
    (H.groups corpus
    @ [
        ( "engine",
          [
            Alcotest.test_case "all four rule families covered" `Quick
              (H.rules_covered corpus
                 [ "hot-alloc"; "hot-complexity"; "hot-poly"; "hot-annotation" ]);
            Alcotest.test_case "surface rooted by name" `Quick
              surface_rooted_by_name;
            Alcotest.test_case "cross-file chain at root" `Quick
              cross_file_chain_charged_at_root;
            Alcotest.test_case "annotation exempts own allocs only" `Quick
              annotation_exempts_own_allocs_only;
            Alcotest.test_case "capture-free lambda is static" `Quick
              capture_free_lambda_is_static;
            Alcotest.test_case "one finding per family per root" `Quick
              one_finding_per_family_per_root;
            Alcotest.test_case "inventory lists roots" `Quick
              inventory_lists_roots;
            Alcotest.test_case "parse error reported" `Quick
              H.parse_error_once;
            Alcotest.test_case "scan_dirs walks fixtures" `Quick
              (H.scan_dirs_walks corpus);
          ] );
        ( "allowlist contract",
          [
            Alcotest.test_case "suppresses and reports stale" `Quick
              allowlist_suppresses_and_reports_stale;
            Alcotest.test_case "shipped allowlist has no AST-family entry"
              `Quick shipped_allowlist_has_no_ast_family_entry;
          ] );
      ])
