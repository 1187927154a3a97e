(* The declarative experiment subsystem (lib/exp): spec metadata, the
   registry contract, the cell memo cache, and the golden pin that the
   catalog bodies render byte-identically to the recorded experiment
   output at several pool widths. *)

module Exp = Doall_exp.Exp
module Ctx = Doall_exp.Ctx
module Catalog = Doall_exp.Catalog
open Doall_core

let () = Catalog.install ()

(* -- spec metadata ------------------------------------------------- *)

let test_spec_fields () =
  let e =
    Exp.make ~id:"zz-spec" ~doc:"a doc" ~anchor:"Thm 0"
      ~axes:(Exp.axes ~algos:[ "a1" ] ~points:[ (1, 2, 3) ] ~seeds:[ 4 ] ())
      ~tables:[ "main"; "extra" ]
      (fun _ -> ())
  in
  Alcotest.(check string) "id" "zz-spec" e.Exp.id;
  Alcotest.(check string) "doc" "a doc" e.Exp.doc;
  Alcotest.(check string) "one-liner" "(Thm 0) a doc" (Exp.one_liner e);
  Alcotest.(check (list string)) "tables" [ "main"; "extra" ] e.Exp.tables;
  Alcotest.(check (list string)) "algos axis" [ "a1" ] e.Exp.axes.Exp.algos

let test_describe () =
  let e =
    Exp.make ~id:"zz-desc" ~doc:"describe me" ~anchor:"Lemma 9"
      ~axes:
        (Exp.axes ~algos:[ "x"; "y" ] ~advs:[ "fair" ] ~points:[ (8, 16, 2) ]
           ~seeds:[ 1; 2 ] ~fault_tags:[ "drop=0.50" ] ())
      ~tables:[ "main" ]
      (fun _ -> ())
  in
  let d = Exp.describe e in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "describe mentions %S" needle)
        true
        (Str.string_match
           (Str.regexp (".*" ^ Str.quote needle ^ ".*"))
           (Str.global_replace (Str.regexp_string "\n") " " d)
           0))
    [
      "zz-desc"; "describe me"; "Lemma 9"; "x, y"; "fair"; "(p=8,t=16,d=2)";
      "1, 2"; "drop=0.50"; "zz-desc-main.csv";
    ]

let test_describe_text_only () =
  let e = Exp.make ~id:"zz-text" ~doc:"d" ~anchor:"a" (fun _ -> ()) in
  Alcotest.(check bool)
    "text-only marker" true
    (Str.string_match (Str.regexp ".*text-only.*")
       (Str.global_replace (Str.regexp_string "\n") " " (Exp.describe e))
       0)

(* -- registry ------------------------------------------------------ *)

let test_registry_duplicate () =
  let e = Exp.make ~id:"zz-dup-test" ~doc:"d" ~anchor:"a" (fun _ -> ()) in
  Exp.register e;
  Alcotest.check_raises "duplicate id rejected"
    (Invalid_argument "Exp.register: duplicate experiment id \"zz-dup-test\"")
    (fun () -> Exp.register e)

let test_registry_order_and_find () =
  let ids = List.map (fun e -> e.Exp.id) (Exp.all ()) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  Alcotest.(check (list string))
    "catalog order is the exp run order"
    [ "e1"; "e2"; "e3"; "fig1"; "e4" ]
    (take 5 ids);
  Alcotest.(check bool) "e19 registered" true (List.mem "e19" ids);
  Alcotest.(check bool) "find hit" true (Exp.find "e17" <> None);
  Alcotest.(check bool) "find miss" true (Exp.find "nope" = None);
  (* install is idempotent: a second call must not re-register *)
  let n = List.length (Exp.all ()) in
  Catalog.install ();
  Alcotest.(check int) "install idempotent" n (List.length (Exp.all ()))

(* -- cell memo cache ----------------------------------------------- *)

let null_sink =
  { Exp.on_table = (fun ~name:_ _ -> ()); on_text = (fun _ -> ()) }

let test_cell_memo () =
  let spec = Runner.spec ~seed:1 ~algo:"trivial" ~adv:"fair" ~p:4 ~t:8 ~d:1 () in
  let spec2 =
    Runner.spec ~seed:2 ~algo:"trivial" ~adv:"fair" ~p:4 ~t:8 ~d:1 ()
  in
  let e =
    Exp.make ~id:"zz-memo" ~doc:"d" ~anchor:"a" (fun ctx ->
        let before = Runner.sim_count () in
        let r1 = Ctx.cell ctx spec in
        let r2 = Ctx.cell ctx spec in
        (* same spec, repeated in a batch with a fresh one *)
        let batch = Ctx.grid ctx [ spec; spec2; spec ] in
        Alcotest.(check int)
          "simulated exactly twice" 2
          (Runner.sim_count () - before);
        Alcotest.(check int) "ctx agrees" 2 (Ctx.cells_simulated ctx);
        Alcotest.(check bool) "hit is the same result" true (r1 == r2);
        (match batch with
         | [ a; b; c ] ->
           Alcotest.(check bool) "batch dedup" true (a == c && a == r1);
           Alcotest.(check bool) "fresh cell differs" true (b != a)
         | _ -> Alcotest.fail "grid arity");
        (* a different oracle flag or fault tag is a different cell *)
        let _ = Ctx.cell ctx ~check:true spec in
        Alcotest.(check int) "check:true is a miss" 3 (Ctx.cells_simulated ctx);
        let faults = ("drop=0.50", Doall_adversary.Fault.drop ~prob:0.5) in
        let _ = Ctx.cell ctx ~faults spec in
        let _ = Ctx.cell ctx ~faults spec in
        Alcotest.(check int) "fault tag keys the cache" 4
          (Ctx.cells_simulated ctx))
  in
  Exp.run ~jobs:1 ~sink:null_sink e

(* E1's table asks for 4 algos x 5 delays and its plot for 4 x 8 (a
   superset of delays) — pre-refactor that simulated 52 cells, the memo
   cache must do exactly the 32 distinct ones. E9 (padet under max-delay
   at 5 delays, random-half at 4), E13 (3 algos x 6 delays) and E18 (3 x
   4) read their registry algorithms through the context too, so every
   one of those cells goes through the runner exactly once. *)
let test_e1_dedup () =
  List.iter
    (fun (id, cells) ->
      let e = Option.get (Exp.find id) in
      let before = Runner.sim_count () in
      Exp.run ~jobs:1 ~sink:null_sink e;
      Alcotest.(check int)
        (id ^ " simulates each distinct cell once")
        cells
        (Runner.sim_count () - before))
    [ ("e1", 32); ("e9", 9); ("e13", 18); ("e18", 12) ]

(* -- golden byte-identity ------------------------------------------ *)

(* test/exp-golden/<id>.expected are verbatim `doall exp run <id>`
   stdout captures (trailing newline stripped). The
   migrated bodies must render the same bytes through a buffer sink at
   any pool width — this is both the migration pin and the pool
   determinism contract applied to whole experiments. *)
let golden_ids =
  [ "e1"; "e2"; "e6"; "e8"; "e9"; "e13"; "e16"; "e17"; "e18"; "e19" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let render_with_jobs id jobs =
  let e = Option.get (Exp.find id) in
  let buf = Buffer.create 4096 in
  let sink =
    {
      Exp.on_table =
        (fun ~name:_ tbl -> Buffer.add_string buf (Doall_analysis.Table.render tbl));
      on_text = Buffer.add_string buf;
    }
  in
  Exp.run ~jobs ~sink e;
  Buffer.contents buf

(* `dune runtest` runs with cwd = the test directory; `dune exec
   test/main.exe` from the repo root does not. *)
let golden_path id =
  let candidates =
    [
      Filename.concat "exp-golden" (id ^ ".expected");
      Filename.concat "test/exp-golden" (id ^ ".expected");
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let test_golden id () =
  let expected = read_file (golden_path id) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s at jobs=%d" id jobs)
        expected (render_with_jobs id jobs))
    [ 1; 2; 4 ]

(* -- jsonl sink ---------------------------------------------------- *)

let test_write_table () =
  let tbl =
    Doall_analysis.Table.create ~title:"T" ~columns:[ "a"; "b" ]
  in
  Doall_analysis.Table.add_row tbl [ "1"; "x,y" ];
  Doall_analysis.Table.add_note tbl "note";
  let path = Filename.temp_file "doall-exp" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Doall_obs.Export.write_table oc ~exp:"zz" ~name:"main" tbl;
      close_out oc;
      let lines =
        String.split_on_char '\n' (String.trim (read_file path))
      in
      Alcotest.(check int) "header + one row" 2 (List.length lines);
      let header = List.nth lines 0 and row = List.nth lines 1 in
      Alcotest.(check string) "header line"
        {|{"v":1,"kind":"table","exp":"zz","name":"main","title":"T","columns":["a","b"],"rows":1,"notes":["note"]}|}
        header;
      Alcotest.(check string) "row line"
        {|{"v":1,"kind":"row","exp":"zz","name":"main","cells":{"a":"1","b":"x,y"}}|}
        row)

let suite =
  [
    Alcotest.test_case "spec fields" `Quick test_spec_fields;
    Alcotest.test_case "describe" `Quick test_describe;
    Alcotest.test_case "describe text-only" `Quick test_describe_text_only;
    Alcotest.test_case "registry duplicate" `Quick test_registry_duplicate;
    Alcotest.test_case "registry order/find" `Quick test_registry_order_and_find;
    Alcotest.test_case "cell memo" `Quick test_cell_memo;
    Alcotest.test_case "e1 cell dedup" `Quick test_e1_dedup;
    Alcotest.test_case "write_table jsonl" `Quick test_write_table;
  ]
  @ List.map
      (fun id ->
        Alcotest.test_case (Printf.sprintf "golden %s" id) `Slow
          (test_golden id))
      golden_ids
