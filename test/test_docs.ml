(* Documentation consistency: every file path mentioned in the docs and
   every named registry entry referenced by README/docs actually exists.
   Guards against doc rot as the library evolves. *)

let check = Alcotest.(check bool)

(* tests run from the test/ build context; locate the repo root by
   walking up until dune-project is found *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let extract_paths text =
  (* pull tokens that look like repo paths: lib/..., test/..., bench/...,
     examples/..., docs/..., bin/... with an extension *)
  let re =
    Str.regexp
      "\\(lib\\|test\\|bench\\|examples\\|docs\\|bin\\)/[A-Za-z0-9_/.-]+\\.\\(ml\\|mli\\|md\\)"
  in
  let rec go acc pos =
    match Str.search_forward re text pos with
    | exception Not_found -> acc
    | i -> go (Str.matched_string text :: acc) (i + 1)
  in
  List.sort_uniq compare (go [] 0)

let test_doc_paths_exist () =
  match repo_root () with
  | None -> () (* installed context: nothing to check *)
  | Some root ->
    let docs =
      [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md"; "docs/PAPER_MAP.md";
        "docs/MODEL.md"; "docs/ALGORITHMS.md"; "docs/LOWER_BOUNDS.md";
        "docs/CONTENTION.md"; "docs/PERFORMANCE.md";
        "docs/OBSERVABILITY.md"; "docs/FAULTS.md" ]
    in
    List.iter
      (fun doc ->
        let path = Filename.concat root doc in
        if Sys.file_exists path then
          List.iter
            (fun referenced ->
              (* tolerate deliberate non-path prose like "lib/quorum" *)
              if not (Sys.file_exists (Filename.concat root referenced)) then
                Alcotest.failf "%s references missing file %s" doc referenced)
            (extract_paths (read_file path))
        else Alcotest.failf "documented file %s itself is missing" doc)
      docs

let test_registry_names_in_docs_exist () =
  Doall_quorum.Register.install ();
  let known =
    List.map
      (fun s -> s.Doall_core.Runner.algo_name)
      (Doall_core.Runner.all_algorithms ())
  in
  List.iter
    (fun name -> check (name ^ " registered") true (List.mem name known))
    [
      "trivial"; "da-q2"; "da-q4"; "da-q8"; "paran1"; "paran2"; "padet";
      "coord"; "awq-q4"; "awq-abd-q4";
    ]

(* docs/FAULTS.md's registry table gives every registry adversary its
   spec form, or says why the entry stays code *)
let test_registry_table_complete () =
  match repo_root () with
  | None -> ()
  | Some root ->
    let text = read_file (Filename.concat root "docs/FAULTS.md") in
    let heading = "### The registry as strategy rows" in
    let section =
      match Str.search_forward (Str.regexp_string heading) text 0 with
      | exception Not_found ->
        Alcotest.failf "docs/FAULTS.md has no %S section" heading
      | i ->
        let start = i + String.length heading in
        let stop =
          match Str.search_forward (Str.regexp "^#") text start with
          | j -> j
          | exception Not_found -> String.length text
        in
        String.sub text start (stop - start)
    in
    List.iter
      (fun (s : Doall_core.Runner.adv_spec) ->
        let row = Str.regexp_string (Printf.sprintf "| `%s` |" s.adv_name) in
        match Str.search_forward row section 0 with
        | _ -> ()
        | exception Not_found ->
          Alcotest.failf "docs/FAULTS.md registry table has no row for %s"
            s.adv_name)
      Doall_core.Runner.adversaries

let suite =
  [
    Alcotest.test_case "doc file references exist" `Quick
      test_doc_paths_exist;
    Alcotest.test_case "documented registry names exist" `Quick
      test_registry_names_in_docs_exist;
    Alcotest.test_case "registry table lists every adversary" `Quick
      test_registry_table_complete;
  ]
