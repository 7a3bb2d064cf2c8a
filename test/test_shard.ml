(* Tests for the shard family's interprocedural analysis, and for the
   plumbing every family shares (directory walking, the one allowlist).

   The fixture corpus (tools/analysis/fixtures/shard, checked through
   Fixture_harness) is the contract, analyzed as ONE program because
   the rules are cross-file: bad_mut_use.ml mutates a table that
   good_mut_decl.ml declared [@@shard.immutable]. On top of the corpus,
   unit tests pin down the call-graph layer: two-hop propagation,
   closure capture, module aliasing, and the unknown-call taint. *)

module H = Fixture_harness

let corpus =
  H.corpus "shard" (fun files ->
      Shard_engine.findings (Shard_engine.analyze_files files))

(* ---------------- call-graph behaviors ---------------- *)

let analyze name src = Shard_engine.analyze_files (H.parsed [ (name, src) ])
let rules = H.rules
let contains = H.contains

let two_hop_chain_reported_at_entry () =
  (* the intrinsic sits two calls below the entry point; the finding
     lands on the entry's definition line with the full chain *)
  let prog =
    analyze "hop.ml"
      "let pick () = Random.int 8\n\
       let backoff () = pick () + 1\n\
       let submit () = backoff ()\n\
       [@@shard.entry]\n"
  in
  let fs = Shard_engine.findings prog in
  Alcotest.(check (list string)) "one det-source" [ "det-source" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check int) "reported at the entry definition" 3 f.Tool_common.line;
  Alcotest.(check bool) "chain names both hops" true
    (contains ~sub:"Hop.backoff" f.Tool_common.message
    && contains ~sub:"Hop.pick" f.Tool_common.message
    && contains ~sub:"Random.int" f.Tool_common.message)

let closure_capture_propagates () =
  (* a registered closure that calls a captured local function inherits
     the local's blocking effect *)
  let prog =
    analyze "cap.ml"
      "let arm engine demi tok =\n\
      \  let redeem () = ignore (Demi.wait demi tok) in\n\
      \  ignore (Dk_sim.Engine.at engine 5L (fun () -> redeem ()))\n"
  in
  let fs = Shard_engine.findings prog in
  Alcotest.(check (list string)) "one poll-blocking" [ "poll-blocking" ]
    (rules fs);
  let f = List.hd fs in
  Alcotest.(check int) "reported at the registration" 3 f.Tool_common.line;
  Alcotest.(check bool) "blames Demi.wait" true
    (contains ~sub:"Demi.wait" f.Tool_common.message)

let module_alias_resolved () =
  (* [module E = Dk_sim.Engine] must not hide the registration surface *)
  let prog =
    analyze "ali.ml"
      "module E = Dk_sim.Engine\n\
       let go engine = ignore (E.at engine 1L (fun () -> Unix.sleep 1))\n"
  in
  let fs = Shard_engine.findings prog in
  Alcotest.(check (list string)) "alias still registers a poll root"
    [ "poll-blocking" ] (rules fs);
  Alcotest.(check bool) "blames Unix.sleep" true
    (contains ~sub:"Unix.sleep" (List.hd fs).Tool_common.message)

let unknown_call_taints_but_stays_quiet () =
  (* calling through a parameter is untrackable: the summary is marked
     unknown for honesty, but no finding is emitted — flagging every
     [t.on_event ()] callback would drown the signal *)
  let prog = analyze "unk.ml" "let call_it f = f ()\nlet pure x = x + 1\n" in
  (match Shard_engine.summary_of prog "Unk.call_it" with
  | None -> Alcotest.fail "summary for Unk.call_it missing"
  | Some s -> Alcotest.(check bool) "tainted unknown" true s.Interproc.unknown);
  (match Shard_engine.summary_of prog "Unk.pure" with
  | None -> Alcotest.fail "summary for Unk.pure missing"
  | Some s -> Alcotest.(check bool) "pure fn untainted" false s.Interproc.unknown);
  Alcotest.(check int) "no findings from unknown alone" 0
    (List.length (Shard_engine.findings prog))

let inventory_classifies () =
  let prog =
    analyze "inv.ml"
      "let table = Hashtbl.create 8 [@@shard.immutable \"decode table\"]\n\
       let hits = ref 0\n"
  in
  let inv = Shard_engine.inventory prog in
  Alcotest.(check int) "two globals inventoried" 2 (List.length inv);
  let find name = List.find (fun g -> g.Shard_engine.g_name = name) inv in
  (match (find "table").Shard_engine.g_class with
  | Shard_engine.Immutable why ->
      Alcotest.(check string) "reason kept" "decode table" why
  | _ -> Alcotest.fail "table should classify Immutable");
  (match (find "hits").Shard_engine.g_class with
  | Shard_engine.Unclassified -> ()
  | _ -> Alcotest.fail "bare ref should be Unclassified");
  Alcotest.(check (list string)) "only the bare ref is flagged"
    [ "shard-state" ]
    (rules (Shard_engine.findings prog));
  Alcotest.(check bool) "json carries the classification" true
    (contains ~sub:"\"shared-immutable\"" (Shard_engine.inventory_json inv))

let tooling_classified_and_exempt () =
  let prog =
    analyze "tool.ml"
      "let sink = ref None [@@shard.tooling \"test tap\"]\n\
       let fire () = sink := Some 1\n"
  in
  let inv = Shard_engine.inventory prog in
  (match
     (List.find (fun g -> g.Shard_engine.g_name = "sink") inv)
       .Shard_engine.g_class
   with
  | Shard_engine.Tooling why ->
      Alcotest.(check string) "reason kept" "test tap" why
  | _ -> Alcotest.fail "sink should classify Tooling");
  Alcotest.(check int) "tooling state raises no finding" 0
    (List.length (Shard_engine.findings prog));
  Alcotest.(check bool) "json carries the tooling class" true
    (contains ~sub:"\"tooling\"" (Shard_engine.inventory_json inv))

(* ---------------- shared plumbing ---------------- *)

let walk_skips_build_and_dot_dirs () =
  (* a stray local _build/ or .git/ must never inject phantom files
     into any family *)
  let root = Filename.concat (Filename.get_temp_dir_name ()) "dk_walk_test" in
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  if Sys.file_exists root then rm root;
  let touch p =
    let oc = open_out p in
    output_string oc "let x = 1\n";
    close_out oc
  in
  Sys.mkdir root 0o755;
  List.iter
    (fun d -> Sys.mkdir (Filename.concat root d) 0o755)
    [ "_build"; ".git"; "src" ];
  touch (Filename.concat root "a.ml");
  touch (Filename.concat root "src/b.ml");
  touch (Filename.concat root "_build/phantom.ml");
  touch (Filename.concat root ".git/ghost.ml");
  touch (Filename.concat root ".hidden.ml");
  touch (Filename.concat root "notes.txt");
  Fun.protect
    ~finally:(fun () -> rm root)
    (fun () ->
      Alcotest.(check (list string))
        "only real .ml files survive" [ "a.ml"; "b.ml" ]
        (Tool_common.ml_files [ root ]
        |> List.map Filename.basename
        |> List.sort compare))

let walk_missing_dir_is_empty () =
  Alcotest.(check (list string))
    "nonexistent directory yields nothing" []
    (Tool_common.ml_files [ "/nonexistent/dk_shard_test" ])

(* ---------------- the one allowlist ---------------- *)

(* A lib/ source with one finding from each family at the same path. *)
let mixed_src =
  "let _x () = try () with _ -> ()\n\
   let close demi qd = ignore (Demi.close demi qd)\n\
   let table = Hashtbl.create 3\n\
   let pair x = (x, x)\n\
   [@@hot]\n"

(* Run the driver from a scratch tree holding lib/mixed.ml (text [src])
   and its .mli, with an allowlist of the given [rule path] lines. *)
let run_with_allowlist ?(src = mixed_src) entries =
  let root = Filename.temp_dir "dk_analyze" "" in
  let write rel text =
    let oc = open_out (Filename.concat root rel) in
    output_string oc text;
    close_out oc
  in
  Sys.mkdir (Filename.concat root "lib") 0o755;
  write "lib/mixed.ml" src;
  write "lib/mixed.mli" "";
  write "allow.txt" (String.concat "\n" entries);
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      List.iter
        (fun rel -> Sys.remove (Filename.concat root rel))
        [ "lib/mixed.ml"; "lib/mixed.mli"; "allow.txt" ];
      Sys.rmdir (Filename.concat root "lib");
      Sys.rmdir root)
    (fun () ->
      Sys.chdir root;
      Analysis.run ~allowlist:"allow.txt" [ "lib" ])

(* One rule per family, each with a finding in lib/mixed.ml. *)
let family_rules =
  [ "catch-all-exn"; "ignored-result"; "shard-state"; "hot-alloc" ]

let present r =
  List.filter (fun x -> List.mem x (rules r.Analysis.kept)) family_rules

let entry_suppresses_only_its_family () =
  Alcotest.(check (list string)) "every family finds something" family_rules
    (present (run_with_allowlist []));
  List.iter
    (fun rule ->
      let r = run_with_allowlist [ rule ^ " lib/mixed.ml" ] in
      Alcotest.(check (list string)) (rule ^ " entry suppresses only " ^ rule)
        (List.filter (fun x -> x <> rule) family_rules)
        (present r);
      Alcotest.(check int) (rule ^ " entry is in use") 0
        (List.length r.Analysis.stale))
    family_rules

let stale_entry_per_family_fails () =
  (* on clean code, one entry of each family's rule is all that fails *)
  List.iter
    (fun rule ->
      let r =
        run_with_allowlist ~src:"let x = 1\n" [ rule ^ " lib/mixed.ml" ]
      in
      Alcotest.(check int) "clean source" 0 (List.length r.Analysis.kept);
      Alcotest.(check (list string)) (rule ^ " entry reported stale") [ rule ]
        (List.map (fun e -> e.Tool_common.a_rule) r.Analysis.stale);
      Alcotest.(check bool) (rule ^ " stale entry fails the run") true
        (Analysis.failed r))
    [ "adhoc-counter"; "token-linear"; "det-source"; "hot-poly" ]

let () =
  Alcotest.run "dk-shard"
    (H.groups corpus
    @ [
        ( "call graph",
          [
            Alcotest.test_case "all three rule families covered" `Quick
              (H.rules_covered corpus
                 [ "shard-state"; "det-source"; "poll-blocking" ]);
            Alcotest.test_case "two-hop chain at entry" `Quick
              two_hop_chain_reported_at_entry;
            Alcotest.test_case "closure capture propagates" `Quick
              closure_capture_propagates;
            Alcotest.test_case "module alias resolved" `Quick
              module_alias_resolved;
            Alcotest.test_case "unknown call taints quietly" `Quick
              unknown_call_taints_but_stays_quiet;
            Alcotest.test_case "inventory classifies" `Quick
              inventory_classifies;
            Alcotest.test_case "tooling classified and exempt" `Quick
              tooling_classified_and_exempt;
            Alcotest.test_case "parse error reported" `Quick
              H.parse_error_once;
            Alcotest.test_case "scan_dirs walks fixtures" `Quick
              (H.scan_dirs_walks corpus);
          ] );
        ( "shared plumbing",
          [
            Alcotest.test_case "walk skips _build and dot dirs" `Quick
              walk_skips_build_and_dot_dirs;
            Alcotest.test_case "missing dir yields nothing" `Quick
              walk_missing_dir_is_empty;
            Alcotest.test_case "allowlist entry stays in its family" `Quick
              entry_suppresses_only_its_family;
            Alcotest.test_case "stale entry of any family fails" `Quick
              stale_entry_per_family_fails;
          ] );
      ])
