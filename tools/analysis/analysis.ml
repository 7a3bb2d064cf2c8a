(* dk-analyze: one read and one parse per source, four rule families.

   lint and verify see every file read; shard and hot each build one
   call graph over the lib/ files only — bench/ or examples/ callbacks
   and roots would change those graphs, so their scope is a constant
   here, not the DIR arguments. The two interprocedural families keep
   separate Interproc passes over the shared parse trees: their hooks
   differ, and each pass is one walk per file. *)

open Tool_common

let interproc_scope path = starts_with ~prefix:"lib/" path

let scan_sources ~files sources =
  let parsed, parse_errors =
    List.partition_map
      (fun (path, text) ->
        match parse ~path text with
        | Ok str -> Either.Left (path, str)
        | Error f -> Either.Right f)
      sources
  in
  let lib = List.filter (fun (path, _) -> interproc_scope path) parsed in
  Lint_engine.missing_mli ~files
  @ List.concat_map
      (fun (path, text) -> Lint_engine.scan_source ~path text)
      sources
  @ parse_errors
  @ List.concat_map (fun (path, str) -> Verify_engine.check ~path str) parsed
  @ Shard_engine.findings (Shard_engine.analyze_files lib)
  @ Hot_engine.findings (Hot_engine.analyze_files lib)
  |> List.stable_sort compare_finding

let scan dirs =
  let files = files dirs in
  let sources =
    List.filter_map
      (fun path ->
        if ends_with ~suffix:".ml" path then Some (path, read_file path)
        else None)
      files
  in
  (scan_sources ~files sources, List.length sources)

type report = {
  files : int;
  kept : finding list;
  stale : allow_entry list;
  allowlisted : int;
}

let run ~allowlist dirs =
  let findings, files = scan dirs in
  let allow = load_allowlist allowlist in
  let kept, stale = apply_allowlist allow findings in
  { files; kept; stale; allowlisted = List.length allow - List.length stale }

let failed r = r.kept <> [] || r.stale <> []

(* ---------------- output ---------------- *)

let tool = "dk-analyze"

(* Machine-readable run report: the same facts the text output prints. *)
let report_json r =
  let finding f =
    Printf.sprintf
      "    {\"path\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"message\": \
       \"%s\"}"
      (json_escape f.path) f.line (json_escape f.rule)
      (json_escape f.message)
  in
  let stale_entry e =
    Printf.sprintf "    {\"rule\": \"%s\", \"path\": \"%s\"}"
      (json_escape e.a_rule) (json_escape e.a_path)
  in
  Printf.sprintf
    "{\n\
    \  \"tool\": \"%s\",\n\
    \  \"files\": %d,\n\
    \  \"allowlisted\": %d,\n\
    \  \"findings\": [\n%s\n  ],\n\
    \  \"stale\": [\n%s\n  ]\n\
     }\n"
    tool r.files r.allowlisted
    (String.concat ",\n" (List.map finding r.kept))
    (String.concat ",\n" (List.map stale_entry r.stale))

let usage = "dk_analyze [--root DIR] [--allowlist FILE] [--json] [DIR ...]"

(* Parse --root/--allowlist/--json/DIRs, refuse to scan a directory
   that does not exist (a typo must not silently scan nothing), run,
   print findings and stale entries, exit nonzero on either. *)
let main () =
  let root = ref None in
  let allowlist = ref "tools/analysis/allowlist.txt" in
  let dirs = ref [] in
  let json = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: d :: rest ->
        root := Some d;
        parse_args rest
    | "--allowlist" :: f :: rest ->
        allowlist := f;
        parse_args rest
    | "--json" :: rest ->
        json := true;
        parse_args rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "%s: unknown option %s\nusage: %s\n" tool arg usage;
        exit 2
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  Option.iter Sys.chdir !root;
  let dirs =
    match List.rev !dirs with [] -> [ "lib"; "bench"; "examples" ] | ds -> ds
  in
  List.iter
    (fun d ->
      if not (Sys.file_exists d && Sys.is_directory d) then begin
        Printf.eprintf "%s: no such directory: %s\n" tool d;
        exit 2
      end)
    dirs;
  let r = run ~allowlist:!allowlist dirs in
  if !json then print_string (report_json r)
  else begin
    List.iter (fun f -> print_endline (pp_finding f)) r.kept;
    List.iter
      (fun e ->
        Printf.eprintf
          "%s: stale allowlist entry (no longer matches): %s %s\n" tool
          e.a_rule e.a_path)
      r.stale;
    Printf.printf "%s: %d source file(s), %d finding(s), %d allowlisted\n"
      tool r.files (List.length r.kept) r.allowlisted
  end;
  if failed r then exit 1
