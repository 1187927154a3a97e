open Doall_sim
open Doall_adversary
open Doall_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run ?(p = 8) ?(t = 32) ?(d = 4) ?(seed = 0) ?(algo = Algo_pa.make_det ())
    adv =
  let cfg = Config.make ~seed ~p ~t () in
  Engine.run_packed algo cfg ~d ~adversary:adv ()

(* a fixed latency, and a latency chosen per destination *)
let constant k = Adversary.Constant k
let per_destination f = Adversary.Per_copy (fun _ ~src:_ ~dst -> f dst)

(* work under a delay policy with fair scheduling and no crashes *)
let work_under ~d delay =
  (run (Adversary.make ~name:"delay" ~delay ()) ~d).Metrics.work

let test_delay_policies_complete () =
  List.iter
    (fun (name, delay) ->
      let m = run (Adversary.make ~name ~delay ()) in
      check (name ^ " completes") true m.Metrics.completed)
    [
      ("immediate", constant 1);
      ("constant-3", constant 3);
      ("maximal", Delay.maximal);
      ("uniform", Delay.uniform);
      ("bimodal", Delay.bimodal ~slow_fraction:0.3);
      ("per-dest", per_destination (fun dst -> 1 + (dst mod 3)));
      ("batched", Delay.stage_batched ~stage_len:4);
      ("partition", Delay.partition ~cut:2);
      ("churn", Delay.churn ~calm:6 ~storm:6);
      ("targeted", Delay.targeted ~victims:(fun pid -> pid mod 3 = 0));
    ]

let test_partition_slows_cross_traffic () =
  (* A partitioned network with large d must cost more than a uniform
     fast one on a coordination-heavy algorithm. *)
  let w_fast = work_under ~d:32 (constant 1) in
  let w_part = work_under ~d:32 (Delay.partition ~cut:2) in
  check "partition costs work" true (w_part >= w_fast)

let test_churn_between_extremes () =
  let w_fast = work_under ~d:16 (constant 1) in
  let w_slow = work_under ~d:16 Delay.maximal in
  let w_churn = work_under ~d:16 (Delay.churn ~calm:8 ~storm:8) in
  check
    (Printf.sprintf "fast %d <= churn %d <= slow %d (with slack)" w_fast
       w_churn w_slow)
    true
    (w_churn >= w_fast && w_churn <= (2 * w_slow) + 16)

let test_max_delay_increases_work () =
  let w_fast = work_under ~d:16 (constant 1) in
  let w_slow = work_under ~d:16 Delay.maximal in
  check "slower network, no less work" true (w_slow >= w_fast)

let test_schedules_complete () =
  List.iter
    (fun (name, schedule) ->
      let m = run (Adversary.make ~name ~schedule ()) in
      check (name ^ " completes") true m.Metrics.completed)
    [
      ("all", Schedule.all);
      ("solo", Schedule.solo 0);
      ("solo-last", Schedule.solo 7);
      ("round-robin", Schedule.round_robin ~width:3);
      ("random-subset", Schedule.random_subset ~prob:0.4);
      ("harmonic", Schedule.harmonic_speeds);
      ("laggard", Schedule.adaptive_laggard);
    ]

let test_solo_serializes () =
  let m =
    run (Adversary.make ~name:"solo" ~schedule:(Schedule.solo 2) ()) ~p:4
      ~t:12
  in
  (* Only processor 2 works: its work is the total. *)
  check_int "one worker" m.Metrics.work m.Metrics.per_proc_work.(2)

let test_round_robin_spreads () =
  let m =
    run
      (Adversary.make ~name:"rr"
         ~schedule:(Schedule.round_robin ~width:2)
         ())
  in
  let active = Array.fold_left (fun acc w -> if w > 0 then acc + 1 else acc) 0
      m.Metrics.per_proc_work
  in
  check "several processors participated" true (active >= 2)

let test_crashes_complete () =
  List.iter
    (fun (name, crash) ->
      let m = run (Adversary.make ~name ~crash ()) in
      check (name ^ " completes") true m.Metrics.completed)
    [
      ("none", fun _ -> []);
      ("at-time", Crash.at_time ~time:2 ~pids:[ 1; 3 ]);
      ("all-but-one", Crash.at_time ~time:1 ~pids:[ 0; 1; 2; 3; 5; 6; 7 ]);
      ("poisson", Crash.poisson ~survivor:0 ~rate:0.02);
      ("staggered", Crash.staggered ~every:3);
    ]

let test_all_but_one_crash_counts () =
  let m =
    run
      (Adversary.make ~name:"abo"
         ~crash:(Crash.at_time ~time:1 ~pids:(List.init 7 succ))
         ())
  in
  check_int "p-1 crashed" 7 m.Metrics.crashed

let test_lb_det_stages_recorded () =
  let adv = Lb_deterministic.create () in
  let m = run adv ~p:16 ~t:16 ~d:4 ~algo:(Algo_da.make ~q:2 ()) in
  check "completes" true m.Metrics.completed;
  let stages = Lb_deterministic.stages_of adv in
  check "at least one stage" true (List.length stages >= 1);
  (* u_s decreases across stages *)
  let us_list = List.map (fun (_, us, _) -> us) stages in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  check "u_s non-increasing" true (non_increasing us_list);
  (* J_s tasks were unperformed at stage start and the set is non-empty *)
  List.iter
    (fun (_, us, js) ->
      check "J_s non-empty" true (List.length js >= 1);
      check "J_s within undone" true (List.length js <= us))
    stages

let test_lb_det_hurts_da () =
  (* The stage adversary must not make the algorithm cheaper than the
     friendly fair adversary. *)
  let fair = (run Adversary.fair ~p:32 ~t:32 ~d:8 ~algo:(Algo_da.make ~q:2 ())).Metrics.work in
  let adv = Lb_deterministic.create () in
  let hostile = (run adv ~p:32 ~t:32 ~d:8 ~algo:(Algo_da.make ~q:2 ())).Metrics.work in
  check
    (Printf.sprintf "hostile %d >= fair %d" hostile fair)
    true (hostile >= fair)

let test_lb_rand_hurts_pa () =
  let algo = Algo_pa.make_ran1 () in
  let fair = (run Adversary.fair ~p:32 ~t:32 ~d:8 ~algo).Metrics.work in
  let adv = Lb_randomized.create () in
  let hostile = (run adv ~p:32 ~t:32 ~d:8 ~algo).Metrics.work in
  check
    (Printf.sprintf "hostile %d >= fair %d" hostile fair)
    true (hostile >= fair)

let test_lb_rand_stages_recorded () =
  let adv = Lb_randomized.create ~selection:`Random () in
  let m = run adv ~p:16 ~t:16 ~d:4 ~algo:(Algo_pa.make_ran2 ()) in
  check "completes" true m.Metrics.completed;
  check "stages recorded" true (List.length (Lb_randomized.stages_of adv) >= 1)

(* A stage adversary's diagnostics live exactly as long as the
   adversary: [stages_of] reads them while it is reachable, and once it
   is dropped a full major collection frees its stage history. *)
let test_lb_registry_entries_die_with_adversary () =
  let weak = Weak.create 2 in
  let[@inline never] run_and_watch i create stages_of algo =
    let adv = create () in
    ignore (run adv ~p:16 ~t:16 ~d:4 ~algo);
    match stages_of adv with
    | stage :: _ -> Weak.set weak i (Some stage)
    | [] -> Alcotest.fail "no stage recorded"
  in
  run_and_watch 0 Lb_deterministic.create Lb_deterministic.stages_of
    (Algo_da.make ~q:2 ());
  run_and_watch 1
    (fun () -> Lb_randomized.create ())
    Lb_randomized.stages_of (Algo_pa.make_ran1 ());
  Gc.full_major ();
  check "lb-det stage history freed" true (Weak.get weak 0 = None);
  check "lb-rand stage history freed" true (Weak.get weak 1 = None)

(* Stage histories of both stage adversaries, pinned at two (p, t, d)
   points each: W, the stage count, the first stage's (now, u_s, |J_s|)
   and an MD5 of every (now, u_s, J_s) in order. J_s is listed in
   selection order, so a change in how ties between equally covered
   tasks break shows. *)
let stages_fingerprint stages =
  stages
  |> List.map (fun (now, us, js) ->
         Printf.sprintf "%d:%d:%s" now us
           (String.concat "," (List.map string_of_int js)))
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let test_lb_stage_history_pins () =
  let first = function
    | (now, us, js) :: _ -> Printf.sprintf "%d:%d:%d" now us (List.length js)
    | [] -> ""
  in
  List.iter
    (fun (label, create, stages_of, algo, (p, t, d), want) ->
      let adv = create () in
      let m = run adv ~p ~t ~d ~seed:1 ~algo:(algo ()) in
      let stages = stages_of adv in
      Alcotest.(check string)
        (Printf.sprintf "%s p%d t%d d%d" label p t d)
        want
        (Printf.sprintf "W=%d stages=%d first=%s md5=%s" m.Metrics.work
           (List.length stages) (first stages) (stages_fingerprint stages)))
    [
      ( "da-q4 lb-det", Lb_deterministic.create, Lb_deterministic.stages_of,
        (fun () -> Algo_da.make ~q:4 ()), (32, 512, 4),
        "W=1963 stages=18 first=0:512:42 md5=4ffda73d5ba8361d7c79548a119272bf" );
      ( "da-q4 lb-det", Lb_deterministic.create, Lb_deterministic.stages_of,
        (fun () -> Algo_da.make ~q:4 ()), (64, 2048, 8),
        "W=5458 stages=13 first=0:2048:85 md5=f8afc26fac201d807392bdf5edd20c71" );
      ( "padet lb-det", Lb_deterministic.create, Lb_deterministic.stages_of,
        (fun () -> Algo_pa.make_det ()), (32, 512, 4),
        "W=1124 stages=9 first=0:512:42 md5=863a7d40b82bd99cfe0f5149f8c901c0" );
      ( "padet lb-det", Lb_deterministic.create, Lb_deterministic.stages_of,
        (fun () -> Algo_pa.make_det ()), (64, 2048, 8),
        "W=5640 stages=12 first=0:2048:85 md5=02bec7cc6aaaf639ceacb2e963af9fae" );
      ( "awq-q4 lb-rand", (fun () -> Lb_randomized.create ()),
        Lb_randomized.stages_of,
        (fun () -> Doall_quorum.Algo_awq.make ~q:4 ()), (32, 512, 4),
        "W=4017 stages=35 first=0:512:102 md5=60054f9bdf9ffb6a1454453e4a4f7c6d" );
      ( "awq-q4 lb-rand", (fun () -> Lb_randomized.create ()),
        Lb_randomized.stages_of,
        (fun () -> Doall_quorum.Algo_awq.make ~q:4 ()), (64, 2048, 8),
        "W=11670 stages=25 first=0:2048:227 md5=9882d0a2e80c078ba2f4494cc9642993" );
    ]

(* The J_s selection the stage adversaries used before
   [Least_covered]: coverage counts in a table, then a sort of [undone]
   on (coverage, task id). Kept as the reference. *)
let ref_least_covered ~undone ~plans k =
  let coverage = Hashtbl.create 16 in
  List.iter (fun z -> Hashtbl.replace coverage z 0) undone;
  Array.iter
    (List.iter (fun z ->
         match Hashtbl.find_opt coverage z with
         | Some c -> Hashtbl.replace coverage z (c + 1)
         | None -> ()))
    plans;
  List.sort
    (fun a b ->
      compare (Hashtbl.find coverage a, a) (Hashtbl.find coverage b, b))
    undone
  |> List.filteri (fun i _ -> i < k)

(* Several stages on one value of working arrays, as one adversary runs
   them. Task ids are drawn from a small range, so coverage ties are
   common; plans repeat tasks and name tasks outside [undone], and
   [undone] may be empty or given in any order. A stage may instead
   set the members directly, as lb-rand's random selection does.
   Membership must be exactly the last selection. *)
let prop_least_covered_matches_ref =
  QCheck2.Test.make ~name:"least-covered J_s = table and sort reference"
    ~count:500
    ~print:(fun (tasks, stages) ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "tasks=%d: %s" tasks
        (String.concat " | "
           (List.map
              (function
                | `Select (undone, plans, k) ->
                  Printf.sprintf "undone [%s] plans [%s] k %d" (ints undone)
                    (String.concat "; " (Array.to_list (Array.map ints plans)))
                    k
                | `Set js -> Printf.sprintf "set [%s]" (ints js))
              stages)))
    QCheck2.Gen.(
      let* tasks = int_range 1 24 in
      let task = int_range 0 (tasks - 1) in
      let distinct =
        map (List.sort_uniq compare) (list_size (int_range 0 tasks) task)
      in
      let select =
        let* undone = distinct >>= shuffle_l in
        let* plans =
          array_size (int_range 0 6) (list_size (int_range 0 8) task)
        in
        let* k = int_range 0 (tasks + 2) in
        return (`Select (undone, plans, k))
      in
      let stage =
        frequency [ (4, select); (1, map (fun js -> `Set js) distinct) ]
      in
      let* stages = list_size (int_range 1 4) stage in
      return (tasks, stages))
    (fun (tasks, stages) ->
      let s = Least_covered.create () in
      List.for_all
        (fun stage ->
          let ok, members =
            match stage with
            | `Select (undone, plans, k) ->
              let got = Least_covered.least_covered s ~tasks ~undone ~plans k in
              (got = ref_least_covered ~undone ~plans k, got)
            | `Set js ->
              Least_covered.set_members s ~tasks js;
              (true, js)
          in
          ok
          && List.for_all
               (fun z -> Least_covered.mem s z = List.mem z members)
               (List.init tasks Fun.id))
        stages)

let test_lb_work_grows_with_d () =
  (* The heart of the delay-sensitive lower bound: more delay budget, more
     forced work. Needs p = t large enough that the forced p*delta/3 per
     stage dominates the algorithm's baseline traversal cost. *)
  let work d =
    let adv = Lb_deterministic.create () in
    (run adv ~p:64 ~t:64 ~d ~algo:(Algo_da.make ~q:4 ())).Metrics.work
  in
  let w1 = work 1 and w8 = work 8 in
  check (Printf.sprintf "w(d=8)=%d > w(d=1)=%d * 1.2" w8 w1) true
    (float_of_int w8 >= 1.2 *. float_of_int w1)

let metrics_tuple (m : Metrics.t) =
  ( m.Metrics.work,
    m.Metrics.messages,
    m.Metrics.sigma,
    m.Metrics.executions,
    Array.to_list m.Metrics.per_proc_work )

let test_poisson_survivor_deterministic () =
  (* rate 1.0: every pid except the survivor crashes on the very first
     tick, before anyone steps — the survivor does all the work, every
     time, whatever the seed. *)
  List.iter
    (fun seed ->
      let m =
        run ~seed
          (Adversary.make ~name:"p1"
             ~crash:(Crash.poisson ~survivor:3 ~rate:1.0)
             ())
      in
      check "completes" true m.Metrics.completed;
      check_int "p-1 crashed" 7 m.Metrics.crashed;
      check_int "survivor did all the work" m.Metrics.work
        m.Metrics.per_proc_work.(3);
      Array.iteri
        (fun pid w -> if pid <> 3 then check_int "victims never stepped" 0 w)
        m.Metrics.per_proc_work)
    [ 0; 1; 7; 42 ];
  (* moderate rate: same seed, same execution, bit for bit *)
  let go () =
    run ~seed:5
      (Adversary.make ~name:"p.3"
         ~crash:(Crash.poisson ~survivor:0 ~rate:0.3)
         ())
  in
  Alcotest.(check bool)
    "seeded poisson is reproducible" true
    (metrics_tuple (go ()) = metrics_tuple (go ()))

let test_delay_policies_clamped () =
  (* Policies may return arbitrary latencies; the engine clamps into
     [1..d]. With the calendar-ring queue an unclamped due time would be
     rejected outright, so mere completion proves the clamp held. *)
  List.iter
    (fun (name, delay) ->
      let m = run ~d:3 (Adversary.make ~name ~delay ()) in
      check (name ^ " completes under d=3") true m.Metrics.completed)
    [
      ("per-dest-huge", per_destination (fun dst -> 1000 + dst));
      ("per-dest-zero", per_destination (fun _ -> 0));
      ("per-dest-negative", per_destination (fun dst -> -dst));
      ("batched-long", Delay.stage_batched ~stage_len:50);
      ("constant-over", constant 99);
    ]

let test_structured_delays_deterministic () =
  (* partition / per_destination / stage_batched: same seed => identical
     run, across a few seeds (the policies are RNG-free; the clamp and
     delivery order must be too). *)
  List.iter
    (fun (name, delay) ->
      List.iter
        (fun seed ->
          let go () = run ~seed ~d:5 (Adversary.make ~name ~delay ()) in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d reproducible" name seed)
            true
            (metrics_tuple (go ()) = metrics_tuple (go ())))
        [ 0; 3; 11 ])
    [
      ("partition", Delay.partition ~cut:2);
      ("per-dest", per_destination (fun dst -> 1 + (dst mod 4)));
      ("batched", Delay.stage_batched ~stage_len:3);
    ]

let test_batched_delivery_legal () =
  (* stage_batched with stage_len <= d never exceeds the bound: engine
     clamps, so completion plus work sanity suffices here; delivery
     batching must not lose messages (PA would then stall). *)
  let m =
    run
      (Adversary.make ~name:"b" ~delay:(Delay.stage_batched ~stage_len:4) ())
      ~d:4
  in
  check "completes" true m.Metrics.completed

(* A stand-in for the engine's oracle: [p] pids, bound [d], the clock
   at [!now], liveness read from [alive]. *)
let stub_oracle ?(p = 64) ?(d = 16) ?(alive = Array.make p true) ~now seed =
  {
    Adversary.time = (fun () -> !now);
    p;
    t = 256;
    d;
    undone_count = (fun () -> 0);
    undone = (fun () -> []);
    task_done = (fun _ -> false);
    would_perform = (fun _ -> None);
    plan = (fun ~pid:_ ~horizon:_ -> []);
    alive = (fun pid -> alive.(pid));
    halted = (fun _ -> false);
    note = ignore;
    rng = Rng.create seed;
  }

(* Minor words per call of [decide], over [calls] calls made after as
   many warm-up calls; [decide i] is the [i]-th decision. *)
let words_per_call ?(calls = 10_000) decide =
  for i = 0 to calls - 1 do
    decide i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    decide i
  done;
  (Gc.minor_words () -. w0) /. Float.of_int calls

(* Every stock per-copy decision, the fault verdicts and each delay rule
   a strategy compiles, allocates nothing: coin flips return a [bool],
   and a [Reorder] verdict comes from a table built once. *)
let test_per_copy_decisions_allocate_nothing () =
  let now = ref 0 in
  let o = stub_oracle ~now 7 in
  let faults =
    [
      ("drop", Fault.drop ~prob:0.5);
      ("duplicate", Fault.duplicate ~copies:2 ~prob:0.5);
      ("reorder", Fault.reorder ~prob:0.5);
      ( "all",
        Fault.all
          [ Fault.drop ~prob:0.2; Fault.duplicate ~copies:1 ~prob:0.3;
            Fault.reorder ~prob:0.4 ] );
    ]
  in
  let src i = i land 63 and dst i = (i lsr 6) land 63 in
  List.iter
    (fun (name, (f : Fault.t)) ->
      let w =
        words_per_call (fun i ->
            ignore (Sys.opaque_identity (f o ~src:(src i) ~dst:(dst i))))
      in
      check (Printf.sprintf "Fault.%s: %.4f words per verdict" name w) true
        (w <= 0.01))
    faults;
  let delays =
    Strategy.
      [ D_const 3; D_max; D_uniform; D_bimodal 0.3; D_stage 4;
        D_partition 2; D_target 3; D_churn (4, 4) ]
  in
  List.iter
    (fun rule ->
      let adv =
        Strategy.into (Strategy.make [ Strategy.phase ~delay:rule () ])
      in
      let w =
        words_per_call (fun i ->
            now := i lsr 4;
            ignore
              (Sys.opaque_identity
                 (adv.Adversary.delay o ~src:(src i) ~dst:(dst i))))
      in
      check (Printf.sprintf "%s: %.4f words per delay" adv.Adversary.name w)
        true (w <= 0.01))
    delays

(* [Crash.flaky]'s two callbacks and [Crash.poisson] cons only the pids
   they return: over a run of ticks the words allocated are three per
   returned pid (a cons cell), and each list is the one the filter over
   every pid gave, the poisson one drawing the same RNG stream. *)
let test_crash_lists_allocate_only_their_cells () =
  let p = 64 and ticks = 400 in
  let alive = Array.make p true and now = ref 0 in
  let o = stub_oracle ~p ~alive ~now 11 in
  let crash, restart = Crash.flaky ~survivor:0 ~up:3 ~down:2 () in
  let poisson = Crash.poisson ~survivor:5 ~rate:0.05 in
  (* the filters these callbacks replaced *)
  let every = List.init p Fun.id in
  let up pid = pid = 0 || (!now + (pid * 2)) mod 5 < 3 in
  let ref_crash () =
    List.filter (fun pid -> pid <> 0 && alive.(pid) && not (up pid)) every
  and ref_restart () =
    List.filter (fun pid -> (not alive.(pid)) && up pid) every
  and ref_poisson rng =
    List.filter
      (fun pid -> alive.(pid) && Rng.chance rng 0.05 && pid <> 5)
      every
  in
  let returned = ref 0 and words = ref 0.0 in
  for tick = 0 to ticks - 1 do
    now := tick;
    let expect_restart = ref_restart () and expect_crash = ref_crash () in
    let expect_poisson = ref_poisson (Rng.copy o.Adversary.rng) in
    let w0 = Gc.minor_words () in
    let r = restart o in
    let c = crash o in
    let q = poisson o in
    words := !words +. (Gc.minor_words () -. w0);
    returned := !returned + List.length r + List.length c + List.length q;
    Alcotest.(check (list int)) "restart list" expect_restart r;
    Alcotest.(check (list int)) "crash list" expect_crash c;
    Alcotest.(check (list int)) "poisson list" expect_poisson q;
    List.iter (fun pid -> alive.(pid) <- true) r;
    (* poisson's victims stay up, so it keeps drawing for every pid *)
    List.iter (fun pid -> alive.(pid) <- false) c
  done;
  check "some pids returned" true (!returned > ticks);
  (* each [Gc.minor_words] reading boxes its result *)
  let slack = Float.of_int (4 * ticks) in
  check
    (Printf.sprintf "%.0f words for %d returned pids" !words !returned)
    true
    (!words <= (3.0 *. Float.of_int !returned) +. slack)

let suite =
  [
    Alcotest.test_case "delay policies complete" `Quick
      test_delay_policies_complete;
    Alcotest.test_case "max delay costs work" `Quick
      test_max_delay_increases_work;
    Alcotest.test_case "partition slows cross traffic" `Quick
      test_partition_slows_cross_traffic;
    Alcotest.test_case "churn between extremes" `Quick
      test_churn_between_extremes;
    Alcotest.test_case "schedules complete" `Quick test_schedules_complete;
    Alcotest.test_case "solo serializes" `Quick test_solo_serializes;
    Alcotest.test_case "round-robin spreads" `Quick test_round_robin_spreads;
    Alcotest.test_case "crash patterns complete" `Quick test_crashes_complete;
    Alcotest.test_case "all-but-one crash count" `Quick
      test_all_but_one_crash_counts;
    Alcotest.test_case "lb-det records stages" `Quick
      test_lb_det_stages_recorded;
    Alcotest.test_case "lb-det >= fair on DA" `Quick test_lb_det_hurts_da;
    Alcotest.test_case "lb-rand >= fair on PaRan1" `Quick test_lb_rand_hurts_pa;
    Alcotest.test_case "lb-rand records stages" `Quick
      test_lb_rand_stages_recorded;
    Alcotest.test_case "lb registry entries die with the adversary" `Quick
      test_lb_registry_entries_die_with_adversary;
    Alcotest.test_case "lb stage histories pinned" `Quick
      test_lb_stage_history_pins;
    QCheck_alcotest.to_alcotest prop_least_covered_matches_ref;
    Alcotest.test_case "forced work grows with d" `Quick
      test_lb_work_grows_with_d;
    Alcotest.test_case "batched delivery legal" `Quick
      test_batched_delivery_legal;
    Alcotest.test_case "poisson survivor deterministic" `Quick
      test_poisson_survivor_deterministic;
    Alcotest.test_case "delay policies clamped" `Quick
      test_delay_policies_clamped;
    Alcotest.test_case "structured delays deterministic" `Quick
      test_structured_delays_deterministic;
    Alcotest.test_case "per-copy decisions allocate nothing" `Quick
      test_per_copy_decisions_allocate_nothing;
    Alcotest.test_case "crash lists allocate only their cells" `Quick
      test_crash_lists_allocate_only_their_cells;
  ]
