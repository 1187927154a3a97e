open Doall_sharedmem
open Doall_perms

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_fair_completes () =
  List.iter
    (fun (p, t) ->
      let m = Write_all.run ~p ~t () in
      if not m.Write_all.completed then
        Alcotest.failf "p=%d t=%d did not complete" p t;
      if m.Write_all.executions < t then Alcotest.failf "missed tasks")
    [ (1, 1); (1, 9); (4, 4); (8, 64); (16, 16); (7, 23); (32, 8) ]

let test_q_variants () =
  List.iter
    (fun q ->
      let m = Write_all.run ~q ~p:9 ~t:36 () in
      check (Printf.sprintf "q=%d completes" q) true m.Write_all.completed)
    [ 2; 3; 4; 5; 8 ]

let test_solo_schedule () =
  let m = Write_all.run ~schedule:(Write_all.solo 0) ~p:4 ~t:16 () in
  check "solo completes" true m.Write_all.completed;
  (* one processor does everything exactly once: no redundancy *)
  check_int "no redundant executions" 0 (Write_all.redundant m)

let test_rotating_and_random () =
  List.iter
    (fun schedule ->
      let m = Write_all.run ~schedule ~p:8 ~t:32 () in
      check "completes" true m.Write_all.completed)
    [
      Write_all.rotating ~width:3;
      Write_all.random_subset ~seed:5 ~prob:0.4;
    ]

(* crash exactly [pids] at time [at] *)
let crash_at ~at ~pids ~time ~alive:_ = if time = at then pids else []

let test_crashes_tolerated () =
  let m =
    Write_all.run
      ~crashes:(crash_at ~at:3 ~pids:[ 0; 1; 2 ])
      ~p:4 ~t:24 ()
  in
  check "completes with one survivor" true m.Write_all.completed;
  check_int "three crashed" 3 m.Write_all.crashed

let test_last_survivor_immune () =
  let m =
    Write_all.run
      ~crashes:(crash_at ~at:1 ~pids:[ 0; 1; 2; 3 ])
      ~p:4 ~t:12 ()
  in
  check "completes" true m.Write_all.completed;
  check_int "one survivor kept" 3 m.Write_all.crashed

let test_work_counts () =
  let m = Write_all.run ~p:6 ~t:24 () in
  check "work >= executions" true (m.Write_all.work >= m.Write_all.executions);
  check "writes >= job count" true (m.Write_all.writes >= 6);
  check "reads positive" true (m.Write_all.reads > 0)

let test_shared_memory_beats_message_passing () =
  (* Same instance, same algorithm skeleton: the shared-memory original
     costs no more work than DA under message passing with delays (DA
     pays the delay in redundant subtree work). *)
  let p = 16 and t = 64 in
  let shm = Write_all.run ~p ~t () in
  let msg =
    (Doall_core.Runner.run ~seed:1 ~algo:"da-q4" ~adv:"max-delay" ~p ~t ~d:16 ())
      .Doall_core.Runner.metrics
  in
  check
    (Printf.sprintf "shm %d <= msg %d" shm.Write_all.work
       msg.Doall_sim.Metrics.work)
    true
    (shm.Write_all.work <= msg.Doall_sim.Metrics.work)

let test_explicit_psi () =
  let psi = List.init 3 (Perm.rotation 3) in
  let m = Write_all.run ~q:3 ~psi ~p:9 ~t:27 () in
  check "explicit psi" true m.Write_all.completed

let test_bad_psi_rejected () =
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Write_all.run: psi must contain exactly q permutations")
    (fun () ->
      ignore (Write_all.run ~q:3 ~psi:[ Perm.identity 3 ] ~p:3 ~t:3 ()))

let test_deterministic () =
  let run () =
    let m = Write_all.run ~p:8 ~t:40 ~schedule:(Write_all.rotating ~width:3) () in
    (m.Write_all.work, m.Write_all.sigma, m.Write_all.executions)
  in
  check "reproducible" true (run () = run ())

let suite =
  [
    Alcotest.test_case "fair completes across shapes" `Quick
      test_fair_completes;
    Alcotest.test_case "q variants" `Quick test_q_variants;
    Alcotest.test_case "solo schedule, zero redundancy" `Quick
      test_solo_schedule;
    Alcotest.test_case "rotating and random schedules" `Quick
      test_rotating_and_random;
    Alcotest.test_case "crashes tolerated" `Quick test_crashes_tolerated;
    Alcotest.test_case "last survivor immune" `Quick test_last_survivor_immune;
    Alcotest.test_case "work accounting" `Quick test_work_counts;
    Alcotest.test_case "shm <= message passing with delays" `Quick
      test_shared_memory_beats_message_passing;
    Alcotest.test_case "explicit psi" `Quick test_explicit_psi;
    Alcotest.test_case "bad psi rejected" `Quick test_bad_psi_rejected;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
  ]
