(* Correctness of every algorithm under a battery of adversaries and
   instance shapes: termination, all tasks performed, knowledge soundness
   (no processor ever believes an unperformed task done), message-count
   structure, and per-family invariants. *)

open Doall_sim
open Doall_core

(* fair scheduling, every message takes the full [d] *)
let max_delay = Adversary.make ~name:"max-delay" ~delay:Adversary.Bound ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let algos () =
  [
    ("trivial", Algo_trivial.make ());
    ("da-q2", Algo_da.make ~q:2 ());
    ("da-q3", Algo_da.make ~q:3 ());
    ("da-q4", Algo_da.make ~q:4 ());
    ("paran1", Algo_pa.make_ran1 ());
    ("paran2", Algo_pa.make_ran2 ());
    ("padet", Algo_pa.make_det ());
  ]

let shapes = [ (1, 1); (1, 7); (3, 3); (4, 16); (7, 5); (8, 64); (16, 16); (5, 23) ]

let adversaries ~p ~t =
  ignore p;
  [
    Adversary.fair;
    max_delay;
    Adversary.uniform_delay;
    Adversary.make ~name:"rr"
      ~schedule:(Doall_adversary.Schedule.round_robin ~width:2) ();
    Adversary.make ~name:"harmonic"
      ~schedule:Doall_adversary.Schedule.harmonic_speeds ();
    Adversary.make ~name:"random-half"
      ~schedule:(Doall_adversary.Schedule.random_subset ~prob:0.5)
      ~delay:Doall_adversary.Delay.uniform ();
    Adversary.make ~name:"crash-mid"
      ~crash:(Doall_adversary.Crash.at_time ~time:(max 1 (t / 2)) ~pids:[ 0 ])
      ();
  ]

(* Run with direct engine access so local knowledge can be audited. *)
let run_audited (module A : Algorithm.S) ~p ~t ~d ~adv ~seed =
  let module E = Engine.Make (A) in
  let cfg = Config.make ~seed ~p ~t () in
  let eng = E.create cfg ~d ~adversary:adv in
  let m = E.run eng in
  let global = E.global_done eng in
  (* knowledge soundness: believe only performed tasks *)
  for pid = 0 to p - 1 do
    let local = A.done_tasks (E.state eng pid) in
    if not (Bitset.subset local global) then
      Alcotest.failf "%s: processor %d believes an unperformed task done"
        A.name pid
  done;
  (m, global)

let test_matrix () =
  List.iter
    (fun (name, algo) ->
      List.iter
        (fun (p, t) ->
          List.iter
            (fun d ->
              let advs = adversaries ~p ~t in
              List.iter
                (fun adv ->
                  let (module A : Algorithm.S) = algo in
                  let m, global =
                    run_audited (module A) ~p ~t ~d ~adv ~seed:(p + t + d)
                  in
                  if not m.Metrics.completed then
                    Alcotest.failf "%s vs %s (p=%d t=%d d=%d) timed out" name
                      adv.Adversary.name p t d;
                  if not (Bitset.is_full global) then
                    Alcotest.failf "%s vs %s: tasks missing" name
                      adv.Adversary.name;
                  if m.Metrics.executions < t then
                    Alcotest.failf "%s: executions < t" name;
                  if m.Metrics.work < m.Metrics.executions then
                    Alcotest.failf "%s: work below executions" name)
                advs)
            [ 1; 3; 17 ])
        shapes)
    (algos ())

let test_lb_adversaries_dont_break_correctness () =
  List.iter
    (fun (name, algo) ->
      List.iter
        (fun mk ->
          let adv = mk () in
          let (module A : Algorithm.S) = algo in
          let m, global =
            run_audited (module A) ~p:8 ~t:24 ~d:5 ~adv ~seed:11
          in
          check (name ^ " completes under LB adversary") true
            m.Metrics.completed;
          check (name ^ " performed everything") true (Bitset.is_full global))
        [
          (fun () -> Doall_adversary.Lb_deterministic.create ());
          (fun () -> Doall_adversary.Lb_randomized.create ());
          (fun () -> Doall_adversary.Lb_randomized.create ~selection:`Random ());
        ])
    (algos ())

let test_da_message_bound () =
  (* Theorem 5.6: M <= p * W, structurally (p-1) messages per broadcast. *)
  List.iter
    (fun q ->
      let m, _ =
        run_audited
          (let (module A : Algorithm.S) = Algo_da.make ~q () in
           (module A))
          ~p:9 ~t:40 ~d:4 ~adv:Adversary.fair ~seed:1
      in
      check
        (Printf.sprintf "M <= p*W for q=%d" q)
        true
        (m.Metrics.messages <= m.Metrics.p * m.Metrics.work))
    [ 2; 3; 4; 5 ]

let test_pa_broadcasts_every_task_step () =
  (* PA sends p-1 messages on every performing step. *)
  let m, _ =
    run_audited
      (let (module A : Algorithm.S) = Algo_pa.make_ran1 () in
       (module A))
      ~p:6 ~t:18 ~d:3 ~adv:Adversary.fair ~seed:2
  in
  check_int "M = (p-1) * executions" (5 * m.Metrics.executions)
    m.Metrics.messages

let test_trivial_never_communicates () =
  let m, _ =
    run_audited
      (let (module A : Algorithm.S) = Algo_trivial.make () in
       (module A))
      ~p:7 ~t:21 ~d:9 ~adv:Adversary.uniform_delay ~seed:3
  in
  check_int "no messages" 0 m.Metrics.messages;
  check_int "work = p*t" (7 * 21) m.Metrics.work

let test_da_solo_traversal () =
  (* A single processor must finish alone; its work is O(q * t). *)
  List.iter
    (fun q ->
      let m, _ =
        run_audited
          (let (module A : Algorithm.S) = Algo_da.make ~q () in
           (module A))
          ~p:1 ~t:32 ~d:4 ~adv:Adversary.fair ~seed:4
      in
      check "solo completes" true m.Metrics.completed;
      check
        (Printf.sprintf "solo work O(qt) for q=%d (got %d)" q m.Metrics.work)
        true
        (m.Metrics.work <= 4 * (q + 2) * 32))
    [ 2; 4; 8 ]

let test_da_explicit_psi () =
  let psi = List.init 3 (Doall_perms.Perm.rotation 3) in
  let m, _ =
    run_audited
      (let (module A : Algorithm.S) = Algo_da.make ~q:3 ~psi () in
       (module A))
      ~p:9 ~t:27 ~d:2 ~adv:Adversary.fair ~seed:5
  in
  check "explicit psi works" true m.Metrics.completed

let test_da_rejects_bad_psi () =
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Algo_da.make: psi must contain exactly q permutations")
    (fun () ->
      ignore (Algo_da.make ~q:3 ~psi:[ Doall_perms.Perm.identity 3 ] ()));
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Algo_da.make: psi permutations must have size q")
    (fun () ->
      ignore
        (Algo_da.make ~q:3
           ~psi:
             [
               Doall_perms.Perm.identity 4;
               Doall_perms.Perm.identity 4;
               Doall_perms.Perm.identity 4;
             ]
           ()))

let test_padet_explicit_psi () =
  let n = 6 in
  let psi = Doall_perms.Gen.seeded_list ~seed:5 ~n ~count:6 in
  let m, _ =
    run_audited
      (let (module A : Algorithm.S) = Algo_pa.make_det ~psi () in
       (module A))
      ~p:6 ~t:6 ~d:2 ~adv:max_delay ~seed:6
  in
  check "padet with explicit psi" true m.Metrics.completed

let test_padet_empty_psi () =
  Alcotest.check_raises "empty psi rejected at make"
    (Invalid_argument "Algo_pa: empty schedule list") (fun () ->
      ignore (Algo_pa.make_det ~psi:[] ()))

let test_padet_psi_wrong_size () =
  (* p = 4, t = 8: n = 4 jobs, but the schedules order 3. *)
  let algo = Algo_pa.make_det ~psi:[ Doall_perms.Perm.identity 3 ] () in
  let cfg = Config.make ~seed:1 ~p:4 ~t:8 () in
  Alcotest.check_raises "wrong-size psi rejected at init"
    (Invalid_argument "Algo_pa: schedule size must be min(p, t)") (fun () ->
      ignore (Engine.run_packed algo cfg ~d:1 ~adversary:Adversary.fair ()))

let test_padet_cache_is_seeded_list () =
  let shapes = [ (4, 4); (6, 10); (16, 16); (1, 5); (32, 32) ] in
  let check_rows (n, p) =
    let psi = Algo_pa.det_schedules ~n ~p in
    let expected =
      Doall_perms.Gen.seeded_list ~seed:0xD0A11 ~n ~count:p
    in
    check_int "one row per processor" p (Array.length psi);
    List.iteri
      (fun u pi ->
        Alcotest.(check (array int))
          (Printf.sprintf "n=%d p=%d row %d" n p u)
          (Doall_perms.Perm.to_array pi) psi.(u))
      expected;
    check "a second lookup shares the list" true
      (Algo_pa.det_schedules ~n ~p == psi)
  in
  (* each shape evicts the previous one; then revisit them all *)
  List.iter check_rows shapes;
  List.iter check_rows (List.rev shapes)

(* Each domain keeps its own cache entry (PaDet's schedules, DA's marked
   tree); interleaved shapes evict it on every cell. Two domains must
   compute what one does. *)
let grid_same_on_two_domains ~algos ~advs =
  let specs =
    Runner.grid ~seeds:[ 0; 1 ] ~algos ~advs
      ~points:[ (8, 32, 3); (5, 40, 7); (16, 16, 2); (12, 7, 4) ]
      ()
  in
  let key (r : Runner.result) =
    ( r.Runner.metrics.Metrics.work,
      r.Runner.metrics.Metrics.messages,
      r.Runner.metrics.Metrics.sigma )
  in
  let one = List.map key (Runner.run_grid ~jobs:1 specs) in
  let two =
    Pool.with_pool ~jobs:2 (fun pool ->
        List.map key (Runner.run_grid ~pool specs))
  in
  if one <> two then
    Alcotest.fail (String.concat "," algos ^ " grid differs on 2 domains")

let test_padet_grid_domains () =
  grid_same_on_two_domains ~algos:[ "padet" ]
    ~advs:[ "fair"; "max-delay"; "lb-rand" ]

(* DA's replicas all start as copies of one cached marked tree per
   (q, jobs). Each must read as a fresh [initial_marks], at init and
   after a restart (a restart is [init] again), and a pid's writes must
   reach neither the cached tree (a later init still reads fresh) nor
   any other pid. *)
let da_states ~q ~p ~t =
  let module A = (val Algo_da.make_open ~q ()) in
  let cfg = Config.make ~seed:1 ~p ~t () in
  let sh = Progress_tree.shape ~q ~jobs:(Task.make ~p ~t).Task.n in
  let fresh = Progress_tree.initial_marks sh in
  let init pid = A.init cfg ~pid in
  (* steps [st] until its tree gains a mark: a leaf or node completion *)
  let write st =
    let before = Bitset.cardinal (Algo_da.tree st) in
    let n = ref 0 in
    while Bitset.cardinal (Algo_da.tree st) = before do
      incr n;
      if !n > 10_000 then Alcotest.fail "no tree write within 10000 steps";
      ignore (A.step st)
    done
  in
  (init, write, fresh)

let test_da_init_trees_fresh () =
  List.iter
    (fun (q, p, t) ->
      let init, write, fresh = da_states ~q ~p ~t in
      let label what pid =
        Printf.sprintf "q%d p%d t%d: pid %d %s" q p t pid what
      in
      let states = Array.init p init in
      Array.iteri
        (fun pid st ->
          check (label "at init" pid) true
            (Bitset.equal (Algo_da.tree st) fresh))
        states;
      write states.(0);
      check "the write shows in pid 0" false
        (Bitset.equal (Algo_da.tree states.(0)) fresh);
      for pid = 1 to p - 1 do
        check (label "after pid 0 wrote" pid) true
          (Bitset.equal (Algo_da.tree states.(pid)) fresh)
      done;
      states.(0) <- init 0;
      check (label "after a restart" 0) true
        (Bitset.equal (Algo_da.tree states.(0)) fresh);
      write states.(p - 1);
      check (label "after pid p-1 wrote" 0) true
        (Bitset.equal (Algo_da.tree states.(0)) fresh))
    [ (4, 10, 40); (2, 12, 12); (8, 9, 100); (4, 16, 8) ]

let test_da_shapes_alternate () =
  (* one cache entry per domain: each shape evicts the other *)
  let a = da_states ~q:4 ~p:10 ~t:40 and b = da_states ~q:2 ~p:12 ~t:12 in
  let kept = ref [] in
  for round = 1 to 3 do
    List.iter
      (fun (name, (init, write, fresh)) ->
        let st = init (round mod 3) in
        check (Printf.sprintf "%s round %d" name round) true
          (Bitset.equal (Algo_da.tree st) fresh);
        kept := (name, st, fresh) :: !kept;
        write (init 1))
      [ ("q4 p10", a); ("q2 p12", b) ]
  done;
  List.iter
    (fun (name, st, fresh) ->
      check (name ^ " still fresh") true (Bitset.equal (Algo_da.tree st) fresh))
    !kept

let test_da_grid_domains () =
  grid_same_on_two_domains ~algos:[ "da-q2"; "da-q4"; "da-q8" ]
    ~advs:[ "fair"; "max-delay"; "flaky-restart"; "lb-det" ]

let test_paran1_vs_paran2_comparable () =
  (* Same expected work family: with matched instances, the two should be
     within a small factor of each other on average. *)
  let avg maker =
    let works =
      List.map
        (fun seed ->
          let m, _ =
            run_audited
              (let (module A : Algorithm.S) = maker () in
               (module A))
              ~p:16 ~t:64 ~d:8 ~adv:Adversary.uniform_delay ~seed
          in
          float_of_int m.Metrics.work)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    in
    List.fold_left ( +. ) 0.0 works /. 8.0
  in
  let w1 = avg Algo_pa.make_ran1 and w2 = avg Algo_pa.make_ran2 in
  check "PaRan1 ~ PaRan2" true (w1 /. w2 < 2.0 && w2 /. w1 < 2.0)

let test_pa_throttled_and_fanout_correct () =
  List.iter
    (fun (label, maker) ->
      List.iter
        (fun adv ->
          let m, global =
            run_audited
              (let (module A : Algorithm.S) = maker () in
               (module A))
              ~p:7 ~t:21 ~d:4 ~adv ~seed:5
          in
          if not m.Metrics.completed then
            Alcotest.failf "%s vs %s did not complete" label
              adv.Adversary.name;
          check (label ^ " all performed") true (Bitset.is_full global))
        [ Adversary.fair; max_delay; Adversary.uniform_delay ])
    [
      ("padet-b4", fun () -> Algo_pa.make_det ~broadcast_every:4 ());
      ("paran1-b8", fun () -> Algo_pa.make_ran1 ~broadcast_every:8 ());
      ("paran1-f1", fun () -> Algo_pa.make_ran1 ~fanout:1 ());
      ("paran2-f3", fun () -> Algo_pa.make_ran2 ~fanout:3 ());
      ("padet-f2-b2", fun () -> Algo_pa.make_det ~fanout:2 ~broadcast_every:2 ());
    ]

let test_throttle_divides_messages () =
  let messages k =
    let m, _ =
      run_audited
        (let (module A : Algorithm.S) =
           Algo_pa.make_det ~broadcast_every:k ()
         in
         (module A))
        ~p:8 ~t:32 ~d:2 ~adv:Adversary.fair ~seed:6
    in
    m.Metrics.messages
  in
  let m1 = messages 1 and m4 = messages 4 in
  check (Printf.sprintf "M(k=4)=%d <= M(k=1)=%d / 2" m4 m1) true (m4 * 2 <= m1)

let test_fanout_message_structure () =
  (* fanout k: every performing step sends exactly k unicasts. *)
  let m, _ =
    run_audited
      (let (module A : Algorithm.S) = Algo_pa.make_ran1 ~fanout:3 () in
       (module A))
      ~p:8 ~t:24 ~d:2 ~adv:Adversary.fair ~seed:7
  in
  check_int "M = 3 * executions" (3 * m.Metrics.executions)
    m.Metrics.messages

let test_fanout_validation () =
  check "fanout 0 rejected" true
    (try
       ignore (Algo_pa.make_ran1 ~fanout:0 ());
       false
     with Invalid_argument _ -> true)

let test_da_copy_independence () =
  (* Stepping a clone never changes the original's observable future:
     two identical runs, one with a cloning adversary, agree. Exercises
     A.copy depth for DA's frame stack. *)
  let peek =
    {
      Adversary.fair with
      name = "clone-peek";
      schedule =
        (fun o ->
          for pid = 0 to o.Adversary.p - 1 do
            ignore (o.Adversary.plan ~pid ~horizon:3)
          done;
          Array.make o.Adversary.p true);
    }
  in
  let run adv =
    let m, _ =
      run_audited
        (let (module A : Algorithm.S) = Algo_da.make ~q:3 () in
         (module A))
        ~p:5 ~t:25 ~d:3 ~adv ~seed:8
    in
    (m.Metrics.work, m.Metrics.sigma, m.Metrics.messages)
  in
  check "cloning is side-effect free" true (run peek = run Adversary.fair)

let suite =
  [
    Alcotest.test_case "matrix: all algos x shapes x adversaries" `Slow
      test_matrix;
    Alcotest.test_case "LB adversaries preserve correctness" `Quick
      test_lb_adversaries_dont_break_correctness;
    Alcotest.test_case "DA: M <= pW" `Quick test_da_message_bound;
    Alcotest.test_case "PA: M = (p-1) executions" `Quick
      test_pa_broadcasts_every_task_step;
    Alcotest.test_case "trivial: silent, W = pt" `Quick
      test_trivial_never_communicates;
    Alcotest.test_case "DA: solo traversal O(qt)" `Quick
      test_da_solo_traversal;
    Alcotest.test_case "DA: explicit psi" `Quick test_da_explicit_psi;
    Alcotest.test_case "DA: rejects bad psi" `Quick test_da_rejects_bad_psi;
    Alcotest.test_case "PaDet: explicit psi" `Quick test_padet_explicit_psi;
    Alcotest.test_case "PaDet: empty psi" `Quick test_padet_empty_psi;
    Alcotest.test_case "PaDet: psi of the wrong size" `Quick
      test_padet_psi_wrong_size;
    Alcotest.test_case "PaDet: cached list = seeded list" `Quick
      test_padet_cache_is_seeded_list;
    Alcotest.test_case "PaDet: grid on 1 and 2 domains" `Quick
      test_padet_grid_domains;
    Alcotest.test_case "DA: init trees read fresh" `Quick
      test_da_init_trees_fresh;
    Alcotest.test_case "DA: two shapes alternate" `Quick
      test_da_shapes_alternate;
    Alcotest.test_case "DA: grid on 1 and 2 domains" `Quick
      test_da_grid_domains;
    Alcotest.test_case "PaRan1 ~ PaRan2 on average" `Slow
      test_paran1_vs_paran2_comparable;
    Alcotest.test_case "PA throttled/fanout variants correct" `Quick
      test_pa_throttled_and_fanout_correct;
    Alcotest.test_case "throttling divides messages" `Quick
      test_throttle_divides_messages;
    Alcotest.test_case "fanout message structure" `Quick
      test_fanout_message_structure;
    Alcotest.test_case "fanout validation" `Quick test_fanout_validation;
    Alcotest.test_case "DA: clone independence" `Quick
      test_da_copy_independence;
  ]
