(* The synchronous-style rotating-coordinator baseline: always-terminate
   guarantee (fallback), frugality when the synchrony assumption holds,
   degradation when it doesn't, and epoch/timeout mechanics. *)

open Doall_sim
open Doall_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run ?(seed = 1) ?(p = 8) ?(t = 48) ?(d = 2) ?(patience = 8) adv_name =
  let adversary = (Runner.find_adv adv_name).Runner.instantiate ~p ~t ~d in
  let cfg = Config.make ~seed ~p ~t () in
  Engine.run_packed (Algo_coord.make ~patience ()) cfg ~d ~adversary ()

let test_completes_everywhere () =
  List.iter
    (fun adv ->
      List.iter
        (fun d ->
          let m = run ~d adv in
          if not m.Metrics.completed then
            Alcotest.failf "coord vs %s d=%d did not complete" adv d)
        [ 1; 4; 16 ])
    [
      "fair"; "max-delay"; "uniform-delay"; "batch"; "solo"; "round-robin";
      "harmonic"; "random-half"; "laggard"; "lb-det"; "lb-rand";
      "crash-half"; "crash-all-but-one"; "crash-staggered";
    ]

let test_no_redundancy_under_synchrony () =
  (* With d = 1 and fair stepping, chunks never overlap: exactly t
     executions. *)
  let m = run ~d:1 "fair" in
  check_int "zero redundant executions" m.Metrics.t m.Metrics.executions

let test_message_frugality () =
  (* Coordinator rounds cost O(p) messages per epoch, against PA's
     (p-1) per step: coord must send far fewer messages at small d. *)
  let mc = run ~d:1 "fair" in
  let adversary = (Runner.find_adv "fair").Runner.instantiate ~p:8 ~t:48 ~d:1 in
  let cfg = Config.make ~seed:1 ~p:8 ~t:48 () in
  let mp = Engine.run_packed (Algo_pa.make_det ()) cfg ~d:1 ~adversary () in
  check
    (Printf.sprintf "coord M=%d << padet M=%d" mc.Metrics.messages
       mp.Metrics.messages)
    true
    (mc.Metrics.messages * 4 < mp.Metrics.messages)

let test_degrades_past_timeout () =
  (* Once d exceeds patience, suspicion thrashes and work jumps. *)
  let w_small = (run ~d:1 ~patience:8 "max-delay").Metrics.work in
  let w_large = (run ~d:32 ~patience:8 "max-delay").Metrics.work in
  check
    (Printf.sprintf "w(d=32)=%d >= 2 * w(d=1)=%d" w_large w_small)
    true
    (w_large >= 2 * w_small)

let test_patience_tunes_the_cliff () =
  (* A longer timeout tolerates a larger d before degrading (at the cost
     of waiting): with patience >= d the redundancy stays low. *)
  let impatient = run ~d:16 ~patience:2 "max-delay" in
  let patient = run ~d:16 ~patience:40 "max-delay" in
  check
    (Printf.sprintf "redundancy: impatient %d > patient %d"
       (Metrics.redundant impatient)
       (Metrics.redundant patient))
    true
    (Metrics.redundant impatient > Metrics.redundant patient)

let test_knowledge_soundness () =
  let (module A : Algorithm.S) = Algo_coord.make () in
  let module E = Engine.Make (A) in
  let cfg = Config.make ~seed:5 ~p:7 ~t:29 () in
  let adversary =
    (Runner.find_adv "random-half").Runner.instantiate ~p:7 ~t:29 ~d:5
  in
  let eng = E.create cfg ~d:5 ~adversary in
  let m = E.run eng in
  check "completed" true m.Metrics.completed;
  for pid = 0 to 6 do
    check "sound" true
      (Bitset.subset (A.done_tasks (E.state eng pid)) (E.global_done eng))
  done

let test_coordinator_crash_failover () =
  (* Crash the epoch-0 coordinator (pid 0) immediately: the rotation plus
     timeouts must hand progress to the others. *)
  let adversary =
    Adversary.make ~name:"kill-coord"
      ~crash:(Doall_adversary.Crash.at_time ~time:1 ~pids:[ 0 ])
      ()
  in
  let cfg = Config.make ~seed:2 ~p:6 ~t:24 () in
  let m = Engine.run_packed (Algo_coord.make ()) cfg ~d:2 ~adversary () in
  check "completes after coordinator crash" true m.Metrics.completed

let test_patience_validation () =
  Alcotest.check_raises "bad patience"
    (Invalid_argument "Algo_coord.make: patience >= 1") (fun () ->
      ignore (Algo_coord.make ~patience:0 ()))

let test_shapes () =
  List.iter
    (fun (p, t) ->
      let m = run ~p ~t "uniform-delay" in
      if not m.Metrics.completed then
        Alcotest.failf "coord p=%d t=%d did not complete" p t)
    [ (1, 1); (1, 10); (3, 3); (5, 17); (12, 6); (9, 100) ]

let suite =
  [
    Alcotest.test_case "completes under every adversary" `Slow
      test_completes_everywhere;
    Alcotest.test_case "no redundancy under synchrony" `Quick
      test_no_redundancy_under_synchrony;
    Alcotest.test_case "message frugality" `Quick test_message_frugality;
    Alcotest.test_case "degrades past the timeout" `Quick
      test_degrades_past_timeout;
    Alcotest.test_case "patience tunes the cliff" `Quick
      test_patience_tunes_the_cliff;
    Alcotest.test_case "knowledge soundness" `Quick test_knowledge_soundness;
    Alcotest.test_case "coordinator crash failover" `Quick
      test_coordinator_crash_failover;
    Alcotest.test_case "patience validation" `Quick test_patience_validation;
    Alcotest.test_case "instance shapes" `Quick test_shapes;
  ]
