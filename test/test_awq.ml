(* The quorum-replicated emulation route (Section 1.1): correctness under
   quorum-preserving adversity, the monotone-register optimizations, the
   delay sensitivity of memory operations, and the paper's caveat — no
   liveness once crashes destroy the quorum. *)

open Doall_sim
open Doall_core
open Doall_quorum

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run ?(seed = 1) ?(p = 8) ?(t = 32) ?(d = 3) ?max_time ?(algo = Algo_awq.make ())
    adv_name =
  let adversary = (Runner.find_adv adv_name).Runner.instantiate ~p ~t ~d in
  let cfg = Config.make ~seed ~p ~t () in
  Engine.run_packed algo cfg ~d ~adversary ?max_time ()

let test_quorum_arithmetic () =
  let q = Quorum.majority ~p:7 in
  check "satisfied with 4 responders" true
    (Quorum.satisfied q (Bitset.of_list 7 [ 0; 2; 4; 6 ]));
  check "unsatisfied with 3" false
    (Quorum.satisfied q (Bitset.of_list 7 [ 0; 2; 4 ]));
  Alcotest.check_raises "wrong capacity"
    (Invalid_argument "Quorum.satisfied: responder set has the wrong capacity")
    (fun () -> ignore (Quorum.satisfied q (Bitset.of_list 8 [ 0 ])))

let test_completes_under_benign_adversaries () =
  List.iter
    (fun adv ->
      let m = run adv in
      check (adv ^ " completes") true m.Metrics.completed;
      check (adv ^ " executions >= t") true (m.Metrics.executions >= 32))
    [ "fair"; "max-delay"; "uniform-delay"; "round-robin"; "harmonic";
      "random-half"; "batch"; "lb-det"; "lb-rand" ]

let test_shapes () =
  List.iter
    (fun (p, t) ->
      List.iter
        (fun q ->
          let m = run ~p ~t ~algo:(Algo_awq.make ~q ()) "uniform-delay" in
          if not m.Metrics.completed then
            Alcotest.failf "awq-q%d p=%d t=%d did not complete" q p t)
        [ 2; 4 ])
    [ (1, 1); (1, 9); (3, 3); (5, 20); (9, 9); (16, 8) ]

let test_knowledge_soundness () =
  let (module A : Algorithm.S) = Algo_awq.make () in
  let module E = Engine.Make (A) in
  let cfg = Config.make ~seed:3 ~p:6 ~t:24 () in
  let adversary = (Runner.find_adv "random-half").Runner.instantiate ~p:6 ~t:24 ~d:4 in
  let eng = E.create cfg ~d:4 ~adversary in
  let m = E.run eng in
  check "completed" true m.Metrics.completed;
  for pid = 0 to 5 do
    check "knowledge sound" true
      (Bitset.subset (A.done_tasks (E.state eng pid)) (E.global_done eng))
  done

let test_minority_crash_survives () =
  (* p=9, 4 crashes: majority of 5 remains, the system must finish. *)
  let m = run ~p:9 ~t:36 "crash-half" in
  check "completes with minority crashed" true m.Metrics.completed

let test_majority_crash_stalls () =
  (* The paper's caveat: quorum destroyed -> Do-All never solved.
     crash-all-but-one leaves 1 < majority(8) alive. *)
  let m = run ~max_time:5_000 "crash-all-but-one" in
  check "does NOT complete" false m.Metrics.completed;
  (* ... while a survivor-liveness algorithm on the same run completes *)
  let m2 = run ~algo:(Algo_da.make ()) "crash-all-but-one" in
  check "DA completes on the same schedule" true m2.Metrics.completed

let test_solo_stalls () =
  (* A single stepping processor cannot gather a quorum. *)
  let m = run ~max_time:5_000 "solo" in
  check "solo starves the quorum" false m.Metrics.completed

let test_delay_sensitivity_of_ops () =
  (* Each memory op waits ~d; work must grow markedly with d, much
     faster than DA's (DA reads locally). *)
  let awq d = (run ~t:64 ~d "max-delay").Metrics.work in
  let da d =
    (run ~t:64 ~d ~algo:(Algo_da.make ()) "max-delay").Metrics.work
  in
  let awq_growth = float_of_int (awq 16) /. float_of_int (awq 1) in
  let da_growth = float_of_int (da 16) /. float_of_int (da 1) in
  check
    (Printf.sprintf "awq growth %.2f > da growth %.2f" awq_growth da_growth)
    true
    (awq_growth > da_growth)

let test_message_complexity_structure () =
  (* Requests are multicast (p-1), responses unicast: M is dominated by
     ops * (2p - 2); just check M <= p * W as for DA-family algorithms. *)
  let m = run ~p:8 ~t:32 "uniform-delay" in
  check "M <= p*W" true (m.Metrics.messages <= 8 * m.Metrics.work)

let test_registry_integration () =
  Register.install ();
  let spec = Runner.find_algo "awq-q4" in
  check "registered" true (spec.Runner.algo_name = "awq-q4");
  check "liveness flag" true (spec.Runner.liveness = `Needs_quorum);
  let r = Runner.run ~algo:"awq-q4" ~adv:"fair" ~p:6 ~t:18 ~d:2 () in
  check "runs by name" true r.Runner.metrics.Metrics.completed

let test_register_idempotent () =
  Register.install ();
  Register.install ();
  let names =
    List.filter
      (fun s -> String.length s.Runner.algo_name >= 3
                && String.sub s.Runner.algo_name 0 3 = "awq")
      (Runner.all_algorithms ())
  in
  check_int "exactly four awq entries" 4 (List.length names)

let test_abd_protocol_correct () =
  List.iter
    (fun adv ->
      let m = run ~algo:(Algo_awq.make ~protocol:`Abd ()) adv in
      check ("abd " ^ adv ^ " completes") true m.Metrics.completed)
    [ "fair"; "max-delay"; "uniform-delay"; "round-robin"; "random-half" ]

let test_abd_costs_about_double () =
  let w proto =
    (run ~t:64 ~d:8 ~algo:(Algo_awq.make ~protocol:proto ()) "max-delay")
      .Metrics.work
  in
  let mono = w `Monotone and abd = w `Abd in
  let ratio = float_of_int abd /. float_of_int mono in
  check
    (Printf.sprintf "abd %d ~ 2x monotone %d (ratio %.2f)" abd mono ratio)
    true
    (ratio > 1.4 && ratio < 3.0)

let test_abd_knowledge_soundness () =
  let (module A : Algorithm.S) = Algo_awq.make ~protocol:`Abd () in
  let module E = Engine.Make (A) in
  let cfg = Config.make ~seed:8 ~p:5 ~t:20 () in
  let adversary =
    (Runner.find_adv "uniform-delay").Runner.instantiate ~p:5 ~t:20 ~d:3
  in
  let eng = E.create cfg ~d:3 ~adversary in
  let m = E.run eng in
  check "completed" true m.Metrics.completed;
  for pid = 0 to 4 do
    check "sound" true
      (Bitset.subset (A.done_tasks (E.state eng pid)) (E.global_done eng))
  done

let test_builtin_names_protected () =
  check "cannot shadow built-in" true
    (try
       Runner.register_algorithm
         {
           Runner.algo_name = "trivial";
           doc = "";
           make = (fun () -> Algo_trivial.make ());
           deterministic = true;
           liveness = `Any_survivor;
         };
       false
     with Invalid_argument _ -> true)

let test_deterministic_reproducible () =
  let w seed = (run ~seed "max-delay").Metrics.work in
  check_int "seed-insensitive" (w 1) (w 2)

(* W/M/sigma/executions of every awq variant under the two lower-bound
   adversaries, which plan with lookahead clones. The literals were
   dumped from an engine whose lookahead stepped every clone to its step
   cap: stopping a clone at its first waiting step must not change a
   single run. awq-q2 (and awq-q8 at the small size) does not complete
   under these adversaries even at the default time cap: they keep most
   processors from stepping, and a processor that does not step answers
   no quorum request (to a quorum system an unbounded delay is as bad as
   a crash, the caveat of Section 1.1). Those cells are pinned at a
   smaller time cap; they are where the most clones wait. *)
let pinned_max_time = 2_000

let lb_pins =
  [
    ("awq-q2", "lb-det", 16, 128, 4, 1, (16588, 4388, 2000, 152), false);
    ("awq-q2", "lb-det", 16, 128, 4, 2, (16588, 4388, 2000, 152), false);
    ("awq-q2", "lb-det", 32, 384, 8, 1, (35096, 23908, 2000, 500), false);
    ("awq-q2", "lb-det", 32, 384, 8, 2, (35096, 23908, 2000, 500), false);
    ("awq-q2", "lb-rand", 16, 128, 4, 1, (16590, 4606, 2000, 160), false);
    ("awq-q2", "lb-rand", 16, 128, 4, 2, (16590, 4606, 2000, 160), false);
    ("awq-q2", "lb-rand", 32, 384, 8, 1, (35115, 24952, 2000, 516), false);
    ("awq-q2", "lb-rand", 32, 384, 8, 2, (35115, 24952, 2000, 516), false);
    ("awq-q4", "lb-det", 16, 128, 4, 1, (888, 2469, 67, 188), true);
    ("awq-q4", "lb-det", 16, 128, 4, 2, (888, 2469, 67, 188), true);
    ("awq-q4", "lb-det", 32, 384, 8, 1, (6044, 19925, 203, 1016), true);
    ("awq-q4", "lb-det", 32, 384, 8, 2, (6044, 19925, 203, 1016), true);
    ("awq-q4", "lb-rand", 16, 128, 4, 1, (921, 2587, 67, 203), true);
    ("awq-q4", "lb-rand", 16, 128, 4, 2, (921, 2587, 67, 203), true);
    ("awq-q4", "lb-rand", 32, 384, 8, 1, (6077, 20129, 203, 1047), true);
    ("awq-q4", "lb-rand", 32, 384, 8, 2, (6077, 20129, 203, 1047), true);
    ("awq-q8", "lb-det", 16, 128, 4, 1, (16888, 5738, 2000, 564), false);
    ("awq-q8", "lb-det", 16, 128, 4, 2, (16888, 5738, 2000, 564), false);
    ("awq-q8", "lb-det", 32, 384, 8, 1, (6036, 18965, 203, 1400), true);
    ("awq-q8", "lb-det", 32, 384, 8, 2, (6036, 18965, 203, 1400), true);
    ("awq-q8", "lb-rand", 16, 128, 4, 1, (16899, 5792, 2000, 556), false);
    ("awq-q8", "lb-rand", 16, 128, 4, 2, (16899, 5792, 2000, 556), false);
    ("awq-q8", "lb-rand", 32, 384, 8, 1, (5868, 18275, 203, 1364), true);
    ("awq-q8", "lb-rand", 32, 384, 8, 2, (5868, 18275, 203, 1364), true);
    ("awq-abd-q4", "lb-det", 16, 128, 4, 1, (1576, 4923, 115, 188), true);
    ("awq-abd-q4", "lb-det", 16, 128, 4, 2, (1576, 4923, 115, 188), true);
    ("awq-abd-q4", "lb-det", 32, 384, 8, 1, (11324, 39819, 379, 1016), true);
    ("awq-abd-q4", "lb-det", 32, 384, 8, 2, (11324, 39819, 379, 1016), true);
    ("awq-abd-q4", "lb-rand", 16, 128, 4, 1, (1609, 5041, 115, 203), true);
    ("awq-abd-q4", "lb-rand", 16, 128, 4, 2, (1609, 5041, 115, 203), true);
    ("awq-abd-q4", "lb-rand", 32, 384, 8, 1, (11357, 40023, 379, 1047), true);
    ("awq-abd-q4", "lb-rand", 32, 384, 8, 2, (11357, 40023, 379, 1047), true);
  ]

let test_lb_pins () =
  Register.install ();
  List.iter
    (fun (algo, adv, p, t, d, seed, (w, m, sigma, ex), completed) ->
      let name =
        Printf.sprintf "%s/%s/p%d/t%d/d%d/seed%d" algo adv p t d seed
      in
      let got =
        try
          (Runner.run ~max_time:pinned_max_time ~seed ~algo ~adv ~p ~t ~d ())
            .Runner.metrics
        with Runner.Run_timeout { metrics; _ } -> metrics
      in
      Alcotest.(check (pair (list int) bool))
        name
        ([ w; m; sigma; ex ], completed)
        ( [
            got.Metrics.work;
            got.Metrics.messages;
            got.Metrics.sigma;
            got.Metrics.executions;
          ],
          got.Metrics.completed ))
    lb_pins

(* A reference check of the [waiting] contract (algorithm.mli). The
   wrapper fails the test as soon as a step that follows a waiting step,
   with no [receive] in between, does anything but wait again. It also
   counts the steps taken on copies, which the engine makes only for the
   adversary's lookahead. *)
module Waiting_checked (A : Algorithm.S) : sig
  include Algorithm.S with type msg = A.msg

  val lookahead_steps : int ref
end = struct
  let name = A.name

  type msg = A.msg
  type state = { st : A.state; clone : bool; mutable waiting : bool }

  let lookahead_steps = ref 0
  let init cfg ~pid = { st = A.init cfg ~pid; clone = false; waiting = false }
  let copy s = { st = A.copy s.st; clone = true; waiting = s.waiting }

  let receive s ~src m =
    s.waiting <- false;
    A.receive s.st ~src m

  let merge_homomorphic = A.merge_homomorphic

  let step s =
    if s.clone then incr lookahead_steps;
    let r = A.step s.st in
    if
      s.waiting
      && not
           (r.Algorithm.performed = None
           && r.Algorithm.broadcast = None
           && r.Algorithm.unicasts = []
           && (not r.Algorithm.halt)
           && r.Algorithm.waiting)
    then
      Alcotest.failf
        "%s: a step after a waiting step did not wait (performed=%b \
         broadcast=%b unicasts=%d halt=%b waiting=%b)"
        A.name
        (r.Algorithm.performed <> None)
        (r.Algorithm.broadcast <> None)
        (List.length r.Algorithm.unicasts)
        r.Algorithm.halt r.Algorithm.waiting;
    s.waiting <- r.Algorithm.waiting;
    r

  let is_done s = A.is_done s.st
  let done_tasks s = A.done_tasks s.st
end

let run_waiting_checked ~seed ~p ~t ~d algo adv =
  let (module A : Algorithm.S) = algo in
  let module W = Waiting_checked (A) in
  let adversary = (Runner.find_adv adv).Runner.instantiate ~p ~t ~d in
  let cfg = Config.make ~seed ~p ~t () in
  let m =
    Engine.run_packed (module W) cfg ~d ~adversary ~max_time:pinned_max_time
      ~check:true ()
  in
  (m, !W.lookahead_steps)

let test_waiting_contract () =
  List.iter
    (fun algo ->
      List.iter
        (fun adv ->
          ignore (run_waiting_checked ~seed:1 ~p:16 ~t:128 ~d:4 algo adv))
        [ "lb-det"; "lb-rand"; "fair"; "max-delay" ])
    [
      Algo_awq.make ~q:2 ();
      Algo_awq.make ~q:4 ();
      Algo_awq.make ~q:8 ();
      Algo_awq.make ~q:4 ~protocol:`Abd ();
    ]

let test_waiting_lookahead_steps () =
  (* stepping every clone on to the 16(t+8) step cap takes 36,955,953
     lookahead steps on this cell *)
  let m, steps =
    run_waiting_checked ~seed:1 ~p:32 ~t:384 ~d:8 (Algo_awq.make ~q:4 ())
      "lb-rand"
  in
  check "completed" true m.Metrics.completed;
  check_int "W as pinned" 6077 m.Metrics.work;
  check_int "lookahead steps" 8_559 steps

let suite =
  [
    Alcotest.test_case "quorum arithmetic" `Quick test_quorum_arithmetic;
    Alcotest.test_case "completes under benign adversaries" `Quick
      test_completes_under_benign_adversaries;
    Alcotest.test_case "instance shapes" `Quick test_shapes;
    Alcotest.test_case "knowledge soundness" `Quick test_knowledge_soundness;
    Alcotest.test_case "minority crash survives" `Quick
      test_minority_crash_survives;
    Alcotest.test_case "majority crash stalls (paper's caveat)" `Quick
      test_majority_crash_stalls;
    Alcotest.test_case "solo starves the quorum" `Quick test_solo_stalls;
    Alcotest.test_case "memory ops are delay-sensitive" `Quick
      test_delay_sensitivity_of_ops;
    Alcotest.test_case "message structure" `Quick
      test_message_complexity_structure;
    Alcotest.test_case "registry integration" `Quick test_registry_integration;
    Alcotest.test_case "register idempotent" `Quick test_register_idempotent;
    Alcotest.test_case "ABD protocol correct" `Quick test_abd_protocol_correct;
    Alcotest.test_case "ABD costs ~2x monotone" `Quick
      test_abd_costs_about_double;
    Alcotest.test_case "ABD knowledge soundness" `Quick
      test_abd_knowledge_soundness;
    Alcotest.test_case "built-in names protected" `Quick
      test_builtin_names_protected;
    Alcotest.test_case "deterministic reproducible" `Quick
      test_deterministic_reproducible;
    Alcotest.test_case "lower-bound adversary pins" `Quick test_lb_pins;
    Alcotest.test_case "waiting contract" `Quick test_waiting_contract;
    Alcotest.test_case "lookahead stops at a waiting step" `Quick
      test_waiting_lookahead_steps;
  ]
