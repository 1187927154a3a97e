(* The engine self-profiler and its two consumers: span mechanics,
   the profile determinism contract (metrics and span structure must
   not move a bit with profiling on/off or across jobs counts), the
   Chrome trace-event exporter (valid JSON, matched s/f flow pairs),
   and the structured run-diff. *)

open Doall_core
module Chrome = Doall_obs.Chrome
module Diff = Doall_obs.Diff
module Json = Doall_obs.Export.Json

(* the deterministic projection of a snapshot: span names and enter
   counts, wall fields dropped *)
let names_and_counts (snap : Span.snapshot) =
  List.map (fun (name, (_, n)) -> (name, n)) snap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Span mechanics.                                                     *)

let test_span_enter_leave () =
  let t = Span.create () in
  check "enabled by default" true (Span.enabled t);
  let sp = Span.span t "a" in
  Span.enter sp;
  Span.leave sp;
  Span.enter sp;
  Span.leave sp;
  match Span.snapshot t with
  | [ ("a", (total, count)) ] ->
    check_int "two sections" 2 count;
    check "non-negative total" true (total >= 0.0)
  | _ -> Alcotest.fail "expected exactly one span"

let test_span_leave_without_enter () =
  let t = Span.create () in
  let sp = Span.span t "a" in
  Span.leave sp;
  Span.leave sp;
  check "unmatched leaves ignored" true
    (Span.snapshot t = [ ("a", (0.0, 0)) ])

let test_span_disabled () =
  let t = Span.create ~enabled:false () in
  check "disabled" true (not (Span.enabled t));
  let sp = Span.span t "a" in
  Span.enter sp;
  Span.leave sp;
  ignore (Span.time sp (fun () -> 41 + 1));
  check "disabled span records nothing" true
    (Span.snapshot t = [ ("a", (0.0, 0)) ])

let test_span_shift () =
  let t = Span.create () in
  let a = Span.span t "a" and b = Span.span t "b" in
  Span.enter a;
  Span.shift a b;
  Span.leave b;
  let counts = names_and_counts (Span.snapshot t) in
  check "shift closes a and opens b" true
    (counts = [ ("a", 1); ("b", 1) ]);
  (* shift with the source closed still opens the destination *)
  Span.shift a b;
  Span.leave b;
  check "shift on closed source" true
    (names_and_counts (Span.snapshot t) = [ ("a", 1); ("b", 2) ])

let test_span_registry_and_snapshot () =
  let t = Span.create () in
  let a = Span.span t "z" in
  check "same name, same span" true (a == Span.span t "z");
  ignore (Span.span t "m");
  ignore (Span.span t "a");
  let names = List.map fst (Span.snapshot t) in
  check "snapshot sorted by name" true (names = [ "a"; "m"; "z" ]);
  let sp = Span.span t "a" in
  ignore (Span.time sp (fun () -> ()));
  check "total sums spans" true (Span.total (Span.snapshot t) >= 0.0);
  check "time raises through" true
    (try
       Span.time sp (fun () -> raise Exit)
     with Exit ->
       (* the section still closed *)
       List.assoc "a" (names_and_counts (Span.snapshot t)) = 2)

(* ------------------------------------------------------------------ *)
(* Profiled runs: deterministic counts, bit-identical metrics.         *)

let profiled_run ?(check = false) ~algo ~adv ~p ~t ~d () =
  Runner.run ~seed:3 ~profile:true ~check ~algo ~adv ~p ~t ~d ()

let test_profile_phase_counts () =
  List.iter
    (fun (algo, adv) ->
      let r = profiled_run ~algo ~adv ~p:8 ~t:48 ~d:4 () in
      let sp =
        match r.Runner.spans with
        | Some sp -> sp
        | None -> Alcotest.fail "profile:true must fill result.spans"
      in
      let counts = names_and_counts sp in
      let c name = List.assoc name counts in
      let w = r.Runner.metrics.Doall_sim.Metrics.work in
      let sigma = r.Runner.metrics.Doall_sim.Metrics.sigma in
      (* one deliver -> algo_step -> bcast_maint chain per engine step *)
      check_int (algo ^ ": deliver per step") w (c "deliver");
      check_int (algo ^ ": algo_step per step") w (c "algo_step");
      check_int (algo ^ ": bcast_maint per step") w (c "bcast_maint");
      check_int (algo ^ ": adversary per tick") (sigma + 1) (c "adversary");
      check_int (algo ^ ": oracle off without check") 0 (c "oracle"))
    [ ("paran1", "max-delay"); ("da-q4", "fair"); ("padet", "uniform-delay") ]

let test_profile_oracle_span () =
  let r = profiled_run ~check:true ~algo:"paran1" ~adv:"fair" ~p:6 ~t:24 ~d:3 () in
  let counts = names_and_counts (Option.get r.Runner.spans) in
  check "oracle span counts with ~check" true (List.assoc "oracle" counts > 0)

let comparable (r : Runner.result) =
  (r.Runner.metrics, r.Runner.algo, r.Runner.adv, r.Runner.seed, r.Runner.obs)

let test_profile_does_not_perturb_metrics () =
  let base =
    Runner.run ~seed:5 ~algo:"paran2" ~adv:"max-delay" ~p:8 ~t:40 ~d:3 ()
  in
  let prof =
    Runner.run ~seed:5 ~profile:true ~algo:"paran2" ~adv:"max-delay" ~p:8 ~t:40
      ~d:3 ()
  in
  check "metrics identical profile on/off" true (comparable base = comparable prof);
  check "unprofiled run carries no spans" true (base.Runner.spans = None)

let test_profile_structure_stable_across_jobs () =
  let specs =
    Runner.grid
      ~seeds:[ 0; 1 ]
      ~algos:[ "paran1"; "da-q4" ]
      ~advs:[ "max-delay"; "fair" ]
      ~points:[ (6, 24, 3) ]
      ()
  in
  let structure rs =
    List.map
      (fun (r : Runner.result) ->
        (comparable r, Option.map names_and_counts r.Runner.spans))
      rs
  in
  let base = structure (Runner.run_grid ~jobs:1 ~profile:true specs) in
  check "every cell profiled" true
    (List.for_all (fun (_, s) -> s <> None) base);
  List.iter
    (fun jobs ->
      let rs = structure (Runner.run_grid ~jobs ~profile:true specs) in
      check
        (Printf.sprintf "span structure identical at jobs=%d" jobs)
        true (base = rs))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export.                                          *)

let traced_run () =
  Runner.run_traced ~seed:2 ~profile:true ~algo:"paran1" ~adv:"max-delay" ~p:5
    ~t:20 ~d:3 ()

let trace_events doc =
  match doc with
  | Json.Obj fields ->
    check "displayTimeUnit" true
      (List.assoc "displayTimeUnit" fields = Json.Str "ms");
    (match List.assoc "traceEvents" fields with
     | Json.List evs -> evs
     | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "document is not an object"

let phase_of = function
  | Json.Obj fields -> (
    match List.assoc_opt "ph" fields with
    | Some (Json.Str ph) -> ph
    | _ -> Alcotest.fail "event without ph")
  | _ -> Alcotest.fail "event is not an object"

let field name = function
  | Json.Obj fields -> List.assoc name fields
  | _ -> raise Not_found

(* the document [Chrome.write] prints, parsed back by the strict
   parser *)
let chrome_doc ?spans ~p tr =
  let path = Filename.temp_file "doall_chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Chrome.write oc ?spans ~p tr);
      match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok doc -> doc
      | Error msg -> Alcotest.fail ("chrome document does not parse: " ^ msg))

let test_chrome_valid_json_and_flows () =
  let r, tr = traced_run () in
  let evs = trace_events (chrome_doc ?spans:r.Runner.spans ~p:5 tr) in
  check "has events" true (evs <> []);
  (* s/f flows come in exactly matched id pairs *)
  let ids ph =
    List.filter_map
      (fun ev -> if phase_of ev = ph then Some (field "id" ev) else None)
      evs
    |> List.sort compare
  in
  let starts = ids "s" and finishes = ids "f" in
  check "at least one flow" true (starts <> []);
  check "s/f ids pair up" true (starts = finishes);
  check "flow ids distinct" true
    (List.length (List.sort_uniq compare starts) = List.length starts);
  (* every complete slice has a duration; finishes bind at enter *)
  List.iter
    (fun ev ->
      match phase_of ev with
      (* sim slices carry the integer step duration; profile slices a
         clock-derived float (non-negative, coarse clocks can floor a
         fast phase to 0) *)
      | "X" -> check "X has dur" true (match field "dur" ev with
          | Json.Int d -> d > 0
          | Json.Float d -> d >= 0.0
          | _ -> false)
      | "f" -> check "f binds enter" true (field "bp" ev = Json.Str "e")
      | _ -> ())
    evs;
  (* both processes present: simulation tracks and the profile track *)
  let pids =
    List.filter_map
      (fun ev -> match field "pid" ev with
        | Json.Int pid -> Some pid
        | _ -> None
      | exception Not_found -> None)
      evs
    |> List.sort_uniq compare
  in
  check "simulation + profile processes" true (pids = [ 1; 2 ])

let test_chrome_without_spans () =
  let r, tr =
    Runner.run_traced ~seed:7 ~algo:"da-q4" ~adv:"fair" ~p:4 ~t:12 ~d:2 ()
  in
  check "no profile requested" true (r.Runner.spans = None);
  let evs = trace_events (chrome_doc ~p:4 tr) in
  check "profile track absent" true
    (List.for_all
       (fun ev ->
         match field "pid" ev with
         | Json.Int pid -> pid = 1
         | _ -> false
         | exception Not_found -> true)
       evs)

(* ------------------------------------------------------------------ *)
(* Structured run-diff.                                                *)

let with_temp_files f =
  let pa = Filename.temp_file "doall_diff_a" ".jsonl" in
  let pb = Filename.temp_file "doall_diff_b" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ pa; pb ])
    (fun () -> f pa pb)

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc text)

(* [Diff.compare_files] on files holding the given documents, one per
   line (a single document reads as a whole-file one) *)
let diff ?tol docs_a docs_b =
  with_temp_files (fun pa pb ->
      let put path docs =
        write_file path
          (String.concat "" (List.map (fun d -> Json.to_string d ^ "\n") docs))
      in
      put pa docs_a;
      put pb docs_b;
      match Diff.compare_files ?tol pa pb with
      | Ok fs -> fs
      | Error msg -> Alcotest.fail msg)

let test_diff_machine_key () =
  List.iter
    (fun (name, expect) ->
      let doc v = Json.Obj [ (name, Json.Int v) ] in
      match diff [ doc 1 ] [ doc 100 ] with
      | [ f ] ->
        check (Printf.sprintf "machine_key %S" name) expect f.Diff.machine
      | fs -> Alcotest.failf "%s: %d findings" name (List.length fs))
    [
      ("wall_s", true);
      ("cell_wall", true);
      ("speedup", true);
      ("rss_mb", true);
      ("measured", true);
      ("seconds", true);
      ("ns", true);
      ("alloc_ns", true);
      (* "columns" contains "ns" as a substring but is logical data *)
      ("columns", false);
      ("work", false);
      ("messages", false);
    ]

let test_diff_exact_vs_tolerant () =
  let doc work wall =
    Json.Obj [ ("work", Json.Int work); ("wall_s", Json.Float wall) ]
  in
  check "identical agree" true (diff [ doc 368 0.5 ] [ doc 368 0.7 ] = []);
  (match diff [ doc 368 0.5 ] [ doc 369 0.5 ] with
   | [ f ] ->
     check "logical path" true (f.Diff.path = "$.work");
     check "logical finding not machine" true (not f.Diff.machine)
   | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  (* machine values: absolute slack of 1s, then ratio tolerance *)
  let wall a b = diff [ doc 1 a ] [ doc 1 b ] in
  check "within absolute slack" true (wall 0.2 1.1 = []);
  check "within ratio" true (wall 100.0 130.0 = []);
  (match wall 100.0 200.0 with
   | [ f ] -> check "tolerance miss is machine" true f.Diff.machine
   | fs -> Alcotest.failf "expected one wall finding, got %d" (List.length fs));
  check "custom tol" true (diff ~tol:2.5 [ doc 1 100.0 ] [ doc 1 200.0 ] = [])

let test_diff_structure () =
  let a = Json.Obj [ ("x", Json.Int 1); ("y", Json.Int 2) ] in
  let b = Json.Obj [ ("y", Json.Int 2); ("x", Json.Int 1) ] in
  check "field order ignored" true (diff [ a ] [ b ] = []);
  let missing = Json.Obj [ ("x", Json.Int 1) ] in
  check_int "missing field is a finding" 1
    (List.length (diff [ a ] [ missing ]));
  let nested =
    Json.Obj [ ("wall", Json.Obj [ ("inner", Json.Float 9.0) ]) ]
  in
  let nested' =
    Json.Obj [ ("wall", Json.Obj [ ("inner", Json.Float 9.5) ]) ]
  in
  check "machine flag covers subtree" true
    (diff [ nested ] [ nested' ] = []);
  check_int "list length mismatch" 1
    (List.length
       (diff [ Json.List [ Json.Int 1 ] ] [ Json.List [] ]));
  check_int "docs length mismatch" 1
    (List.length (diff [ a; b ] [ a ]))

let test_diff_files () =
  with_temp_files (fun pa pb ->
      (* JSONL: line-by-line comparison with line-prefixed paths *)
      write_file pa "{\"v\":1,\"work\":368}\n{\"v\":1,\"wall_s\":0.5}\n";
      write_file pb "{\"v\":1,\"work\":369}\n{\"v\":1,\"wall_s\":0.6}\n";
      (match Diff.compare_files pa pb with
       | Ok [ f ] ->
         check "line-prefixed path" true (f.Diff.path = "line 1 $.work")
       | Ok fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)
       | Error msg -> Alcotest.fail msg);
      check "identical files agree" true (Diff.compare_files pa pa = Ok []);
      (* whole-file documents load as a single doc, no line prefix *)
      write_file pa "{\n  \"cells\": [1, 2],\n  \"wall_s\": 3.0\n}\n";
      write_file pb "{\"cells\":[1,2],\"wall_s\":3.0}\n";
      check "whole-file parse" true (Diff.compare_files pa pb = Ok []);
      (* unreadable input is an Error, not findings *)
      write_file pb "{not json";
      check "parse failure is Error" true
        (match Diff.compare_files pa pb with Error _ -> true | Ok _ -> false))

let suite =
  [
    Alcotest.test_case "span enter/leave" `Quick test_span_enter_leave;
    Alcotest.test_case "span unmatched leave" `Quick
      test_span_leave_without_enter;
    Alcotest.test_case "span disabled" `Quick test_span_disabled;
    Alcotest.test_case "span shift" `Quick test_span_shift;
    Alcotest.test_case "span registry/snapshot" `Quick
      test_span_registry_and_snapshot;
    Alcotest.test_case "profile phase counts" `Quick test_profile_phase_counts;
    Alcotest.test_case "profile oracle span" `Quick test_profile_oracle_span;
    Alcotest.test_case "profile does not perturb metrics" `Quick
      test_profile_does_not_perturb_metrics;
    Alcotest.test_case "profile structure across jobs" `Quick
      test_profile_structure_stable_across_jobs;
    Alcotest.test_case "chrome JSON + flows" `Quick
      test_chrome_valid_json_and_flows;
    Alcotest.test_case "chrome without spans" `Quick test_chrome_without_spans;
    Alcotest.test_case "diff machine keys" `Quick test_diff_machine_key;
    Alcotest.test_case "diff exact vs tolerant" `Quick
      test_diff_exact_vs_tolerant;
    Alcotest.test_case "diff structure" `Quick test_diff_structure;
    Alcotest.test_case "diff files" `Quick test_diff_files;
  ]
