open Doall_workload
open Doall_core
module Trace = Doall_sim.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Fixtures. [checksum]: a deterministic arithmetic digest per task;
   [broken]: a hidden counter leaks into the results, so re-executions
   disagree (fresh state per call). *)
let checksum ~t =
  Workload.make ~t (fun z ->
      let acc = ref 0 in
      for i = 1 to 32 do
        acc := !acc + ((((z * 37) + i) * 0x2545F4914F6CDD1D) lsr 17)
      done;
      !acc)

let broken ~t =
  let counter = ref 0 in
  Workload.make ~t (fun z ->
      incr counter;
      z + !counter)

(* replay a trace performing [tasks] in order *)
let record_all j tasks =
  let tr = Trace.create () in
  List.iteri
    (fun time task ->
      Trace.add tr (Trace.Perform { time; pid = 0; task; fresh = true }))
    tasks;
  Workload.Journal.replay_trace j tr

let journal w tasks =
  let j = Workload.Journal.create w in
  record_all j tasks;
  j

(* executions = distinct tasks + re-executions *)
let executions j =
  List.length (Workload.Journal.results j) + Workload.Journal.redundant j

let test_checksum_deterministic () =
  let j = journal (checksum ~t:16) (List.init 32 (fun i -> i mod 16)) in
  check_int "every task re-executed" 16 (Workload.Journal.redundant j);
  check "replays identically" true (Workload.Journal.consistent j)

let test_checksum_distinct () =
  let j = journal (checksum ~t:32) (List.init 32 Fun.id) in
  let results = List.map snd (Workload.Journal.results j) in
  check_int "results distinct" 32
    (List.length (List.sort_uniq compare results))

let test_range_check () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Workload.run_task: task out of range") (fun () ->
      ignore (journal (checksum ~t:4) [ 4 ]))

let test_keyspace_scan () =
  let w = Workload.keyspace_scan ~t:5 ~shard_size:10 ~hit:(fun k -> k mod 7 = 0) in
  Alcotest.(check (list (pair int (list int))))
    "shards 0 and 2" [ (0, [ 0; 7 ]); (2, [ 21; 28 ]) ]
    (Workload.Journal.results (journal w [ 0; 2 ]))

let test_journal_counts () =
  let j = journal (checksum ~t:4) [ 0; 1; 0 ] in
  check_int "executions" 3 (executions j);
  check_int "distinct" 2 (List.length (Workload.Journal.results j));
  check_int "redundant" 1 (Workload.Journal.redundant j);
  check "incomplete" false (Workload.Journal.complete j);
  check "consistent" true (Workload.Journal.consistent j);
  record_all j [ 2; 3 ];
  check "complete" true (Workload.Journal.complete j)

let test_journal_results () =
  let w = checksum ~t:3 in
  let j = journal w [ 2 ] in
  let expected = Workload.Journal.results (journal w [ 0; 1; 2 ]) in
  Alcotest.(check (option int)) "recorded" (List.assoc_opt 2 expected)
    (List.assoc_opt 2 (Workload.Journal.results j));
  Alcotest.(check (option int)) "absent" None
    (List.assoc_opt 0 (Workload.Journal.results j));
  check_int "results list" 1 (List.length (Workload.Journal.results j))

let test_journal_catches_nonidempotence () =
  let j = journal (broken ~t:3) [ 1; 1 ] in
  check "violation detected" false (Workload.Journal.consistent j)

let test_replay_simulated_run () =
  (* End-to-end: adversarial run -> trace -> journal; idempotence and
     completeness must hold with a real workload attached. *)
  let p = 6 and t = 30 and d = 4 in
  let result, trace =
    Runner.run_traced ~seed:4 ~algo:"paran1" ~adv:"random-half" ~p ~t ~d ()
  in
  check "sim completed" true result.Runner.metrics.Doall_sim.Metrics.completed;
  let j = Workload.Journal.create (checksum ~t) in
  Workload.Journal.replay_trace j trace;
  check "all tasks executed" true (Workload.Journal.complete j);
  check "idempotence verified" true (Workload.Journal.consistent j);
  check_int "journal matches metrics"
    result.Runner.metrics.Doall_sim.Metrics.executions (executions j)

let test_replay_catches_bad_tasks_under_redundancy () =
  (* The same end-to-end loop flags a broken workload whenever the
     schedule forces redundancy. *)
  let p = 6 and t = 24 and d = 8 in
  let result, trace =
    Runner.run_traced ~seed:5 ~algo:"paran2" ~adv:"max-delay" ~p ~t ~d ()
  in
  let m = result.Runner.metrics in
  check "run had redundancy" true (Doall_sim.Metrics.redundant m > 0);
  let j = Workload.Journal.create (broken ~t) in
  Workload.Journal.replay_trace j trace;
  check "violations surfaced" false (Workload.Journal.consistent j)

let prop_journal_accounting =
  QCheck2.Test.make ~name:"journal accounting identities" ~count:100
    QCheck2.Gen.(
      let* t = int_range 1 20 in
      let* ops = list_size (int_range 0 60) (int_range 0 (t - 1)) in
      return (t, ops))
    (fun (t, ops) ->
      let j = journal (checksum ~t) ops in
      let distinct = List.length (Workload.Journal.results j) in
      executions j = List.length ops
      && distinct = List.length (List.sort_uniq compare ops)
      && Workload.Journal.redundant j = List.length ops - distinct
      && Workload.Journal.consistent j)

let suite =
  [
    Alcotest.test_case "checksum deterministic" `Quick
      test_checksum_deterministic;
    Alcotest.test_case "checksum distinct" `Quick test_checksum_distinct;
    Alcotest.test_case "range check" `Quick test_range_check;
    Alcotest.test_case "keyspace scan" `Quick test_keyspace_scan;
    Alcotest.test_case "journal counts" `Quick test_journal_counts;
    Alcotest.test_case "journal results" `Quick test_journal_results;
    Alcotest.test_case "journal catches non-idempotence" `Quick
      test_journal_catches_nonidempotence;
    Alcotest.test_case "replay a simulated run" `Quick
      test_replay_simulated_run;
    Alcotest.test_case "replay flags broken tasks" `Quick
      test_replay_catches_bad_tasks_under_redundancy;
    QCheck_alcotest.to_alcotest prop_journal_accounting;
  ]
