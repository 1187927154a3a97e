open Doall_sim
open Doall_core

(* fair scheduling, every message takes the full [d] *)
let max_delay = Adversary.make ~name:"max-delay" ~delay:Adversary.Bound ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run ?(seed = 0) ?(p = 4) ?(t = 16) ?(d = 2) ?(adv = Adversary.fair) algo =
  let cfg = Config.make ~seed ~p ~t () in
  Engine.run_packed algo cfg ~d ~adversary:adv ()

let test_trivial_completes () =
  let m = run (Algo_trivial.make ()) in
  check "completed" true m.Metrics.completed;
  check_int "work p*t" (4 * 16) m.Metrics.work;
  check_int "no messages" 0 m.Metrics.messages;
  check_int "sigma = t - 1" 15 m.Metrics.sigma

let test_executions_at_least_t () =
  let m = run (Algo_pa.make_ran1 ()) in
  check "every task performed" true (m.Metrics.executions >= m.Metrics.t)

let test_work_counts_all_steps () =
  (* With fair scheduling, work = p * (sigma + 1) minus steps of processors
     that halted before sigma. For trivial nobody halts before sigma. *)
  let m = run (Algo_trivial.make ()) in
  check_int "work = p * (sigma+1)" (m.Metrics.p * (m.Metrics.sigma + 1))
    m.Metrics.work

let test_per_proc_work_sums () =
  let m = run (Algo_pa.make_ran2 ()) ~p:5 ~t:20 ~d:3 in
  check_int "per-processor sums to W" m.Metrics.work
    (Array.fold_left ( + ) 0 m.Metrics.per_proc_work)

let test_messages_multiple_of_p_minus_1 () =
  let m = run (Algo_pa.make_ran1 ()) ~p:6 ~t:12 ~d:2 in
  check_int "broadcasts only" 0 (m.Metrics.messages mod 5)

let test_d_zero_treated_as_one () =
  let m = run (Algo_pa.make_ran1 ()) ~d:0 in
  check "completes with d=0" true m.Metrics.completed;
  check_int "d recorded as 1" 1 m.Metrics.d

let test_deterministic_reproducible () =
  let m1 = run (Algo_da.make ~q:2 ()) ~p:6 ~t:24 ~d:4 ~seed:3 in
  let m2 = run (Algo_da.make ~q:2 ()) ~p:6 ~t:24 ~d:4 ~seed:3 in
  check_int "same work" m1.Metrics.work m2.Metrics.work;
  check_int "same messages" m1.Metrics.messages m2.Metrics.messages;
  check_int "same sigma" m1.Metrics.sigma m2.Metrics.sigma

let test_randomized_seed_sensitivity () =
  let works =
    List.map
      (fun seed ->
        (run (Algo_pa.make_ran1 ()) ~p:8 ~t:32 ~d:4 ~seed).Metrics.work)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  check "some variation across seeds" true
    (List.length (List.sort_uniq compare works) > 1)

let test_forced_step_under_total_delay () =
  (* An adversary that delays everybody: the engine must still advance
     one processor per unit, so the run completes. *)
  let deny = { Adversary.fair with
               name = "deny-all";
               schedule = (fun o -> Array.make o.Adversary.p false) } in
  let m = run (Algo_trivial.make ()) ~adv:deny ~p:3 ~t:9 in
  check "completed" true m.Metrics.completed;
  (* only one processor steps per unit: work equals elapsed units *)
  check_int "serialized work" (m.Metrics.sigma + 1) m.Metrics.work

let test_crash_all_but_one_still_completes () =
  let adv =
    Adversary.make ~name:"cabo"
      ~crash:(Doall_adversary.Crash.at_time ~time:3 ~pids:[ 0; 1; 3 ])
      ()
  in
  let m = run (Algo_da.make ~q:2 ()) ~adv ~p:4 ~t:16 ~d:2 in
  check "completed" true m.Metrics.completed;
  check_int "three crashed" 3 m.Metrics.crashed

let test_survivor_rule () =
  (* Crashing everyone is refused for the last processor. *)
  let adv =
    Adversary.make ~name:"kill-all"
      ~crash:(fun o -> List.init o.Adversary.p Fun.id)
      ()
  in
  let m = run (Algo_trivial.make ()) ~adv ~p:4 ~t:8 in
  check "completed" true m.Metrics.completed;
  check_int "one survivor" 3 m.Metrics.crashed

let test_oracle_would_perform () =
  (* Build an engine directly and inspect the oracle through an adversary
     that records lookahead results. *)
  let seen = ref [] in
  let adv =
    {
      Adversary.fair with
      name = "peek";
      schedule =
        (fun o ->
          (match o.Adversary.would_perform 0 with
           | Some task -> seen := task :: !seen
           | None -> ());
          Array.make o.Adversary.p true);
    }
  in
  let m = run (Algo_trivial.make ~staggered:false ()) ~adv ~p:2 ~t:6 in
  check "completed" true m.Metrics.completed;
  let seen = List.rev !seen in
  (* trivial-lockstep performs 0,1,2,..: lookahead must predict that *)
  check "lookahead predicted first task" true
    (match seen with 0 :: _ -> true | _ -> false);
  check "lookahead tracks progression" true
    (List.for_all2 ( = ) (List.init (min 6 (List.length seen)) Fun.id)
       (List.filteri (fun i _ -> i < 6) seen))

let test_plan_horizon () =
  let plans = ref [] in
  let adv =
    {
      Adversary.fair with
      name = "plan";
      schedule =
        (fun o ->
          if o.Adversary.time () = 0 then
            plans := o.Adversary.plan ~pid:0 ~horizon:4;
          Array.make o.Adversary.p true);
    }
  in
  let m = run (Algo_trivial.make ~staggered:false ()) ~adv ~p:2 ~t:8 in
  check "completed" true m.Metrics.completed;
  Alcotest.(check (list int)) "first four tasks planned" [ 0; 1; 2; 3 ] !plans

let test_lookahead_does_not_disturb () =
  (* Lookahead clones; the run with a peeking adversary equals the run
     with the same scheduling but no peeking. *)
  let peek =
    {
      Adversary.fair with
      name = "peek2";
      schedule =
        (fun o ->
          for pid = 0 to o.Adversary.p - 1 do
            ignore (o.Adversary.would_perform pid)
          done;
          Array.make o.Adversary.p true);
    }
  in
  let m1 = run (Algo_pa.make_ran1 ()) ~p:5 ~t:20 ~d:3 ~seed:9 ~adv:peek in
  let m2 = run (Algo_pa.make_ran1 ()) ~p:5 ~t:20 ~d:3 ~seed:9 in
  check_int "identical work" m2.Metrics.work m1.Metrics.work;
  check_int "identical sigma" m2.Metrics.sigma m1.Metrics.sigma

let test_delay_clamped_to_d () =
  (* An adversary demanding absurd latencies is clamped into [1, d]:
     the run must behave exactly like max-delay. *)
  let absurd =
    Adversary.make ~name:"absurd" ~delay:(Adversary.Constant 1_000_000_000) ()
  in
  let m1 = run (Algo_pa.make_det ()) ~p:6 ~t:24 ~d:5 ~adv:absurd in
  let m2 = run (Algo_pa.make_det ()) ~p:6 ~t:24 ~d:5 ~adv:max_delay in
  check "completes despite absurd delays" true m1.Metrics.completed;
  check_int "identical to max-delay" m2.Metrics.work m1.Metrics.work;
  (* and a zero/negative delay is floored at one time unit *)
  let instant =
    Adversary.make ~name:"instant" ~delay:(Adversary.Constant (-3)) ()
  in
  let m3 = run (Algo_pa.make_det ()) ~p:6 ~t:24 ~d:5 ~adv:instant in
  let m4 = run (Algo_pa.make_det ()) ~p:6 ~t:24 ~d:5 ~adv:Adversary.fair in
  check_int "floored at 1 = fair" m4.Metrics.work m3.Metrics.work

let test_timeout_reported () =
  (* An adversary cannot prevent termination, so force a tiny cap. *)
  let cfg = Config.make ~p:4 ~t:64 () in
  let m =
    Engine.run_packed (Algo_da.make ~q:2 ()) cfg ~d:1
      ~adversary:Adversary.fair ~max_time:2 ()
  in
  check "not completed" false m.Metrics.completed

let test_trace_records () =
  let cfg = Config.make ~p:3 ~t:6 () in
  let m, trace =
    Engine.run_traced (Algo_trivial.make ()) cfg ~d:1
      ~adversary:Adversary.fair ()
  in
  check "completed" true m.Metrics.completed;
  let performs = ref 0 in
  Trace.iter trace (fun ev ->
      match ev with Trace.Perform _ -> incr performs | _ -> ());
  check_int "trace has all executions" m.Metrics.executions !performs

let test_fresh_flags_in_trace () =
  let cfg = Config.make ~p:3 ~t:6 () in
  let _, trace =
    Engine.run_traced (Algo_trivial.make ()) cfg ~d:1
      ~adversary:Adversary.fair ()
  in
  let fresh = ref 0 in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Perform { fresh = true; _ } -> incr fresh
      | _ -> ());
  check_int "each task fresh exactly once" 6 !fresh

let test_delay_past_ring_cap () =
  (* a due is packed into [Msg_ring.max_due]; a larger d is refused
     before any state is built *)
  let cfg = Config.make ~p:4 ~t:8 () in
  Alcotest.check_raises "d past the ring cap"
    (Invalid_argument "Engine.create: d past Msg_ring.max_due (2^31 - 1)")
    (fun () ->
      ignore
        (Engine.run_packed (Algo_trivial.make ()) cfg
           ~d:(Msg_ring.max_due + 1) ~adversary:max_delay ()))

(* A probe algorithm whose own work allocates nothing: [step] returns
   one of two results built at [init], both carrying one shared
   payload, and [receive] only counts. A pid sends on the steps where
   [(n + pid) mod period = 0]: every step with [period = 1], and one
   pid per tick with [period = p]. *)
let quiet_probe ~bcast ~unicast ~period : Algorithm.packed =
  (module struct
    let name = "quiet-probe"

    type msg = int array

    type state = {
      send : msg Algorithm.step_result;
      rest : msg Algorithm.step_result;
      known : Bitset.t;
      mutable n : int;
      mutable received : int;
    }

    let payload = Array.make 8 0

    let init cfg ~pid =
      let p = cfg.Config.p in
      let unicasts =
        if unicast then [ ((pid + 1) mod p, payload) ] else []
      in
      {
        send =
          Algorithm.result
            ?broadcast:(if bcast then Some payload else None)
            ~unicasts ();
        rest = Algorithm.nothing;
        known = Bitset.create cfg.Config.t;
        n = pid;
        received = 0;
      }

    let copy st = { st with n = st.n }
    let receive st ~src:_ _ = st.received <- st.received + 1
    let merge_homomorphic = None

    let step st =
      let r = if st.n mod period = 0 then st.send else st.rest in
      st.n <- st.n + 1;
      r

    let is_done _ = false
    let done_tasks st = st.known
  end)

(* Minor words the engine allocates per step on one outbound path, the
   probe's own results and payload being preallocated. The schedule
   array is reused too, so what remains is the engine's and the
   fabric's own: nothing on any path (about 0.001 words a step from
   amortised growth; a [slot] record per delivered slot read 0.25 on
   the shared channel at p = 16). Warm-up (ring and table growth) runs
   before the measured window. *)
let words_per_step ?(transport = Config.Ptp) ?faults ?(per_copy = false)
    ~bcast ~unicast ~period () =
  let p = 16 in
  let cfg = Config.make ~seed:1 ~transport ~p ~t:64 () in
  let all = Array.make p true in
  let adversary = { max_delay with schedule = (fun _ -> all); faults } in
  let adversary =
    if per_copy then Adversary.per_copy adversary else adversary
  in
  let (module A) = quiet_probe ~bcast ~unicast ~period in
  let module E = Engine.Make (A) in
  let eng = E.create cfg ~d:4 ~adversary in
  let warm = E.run ~max_time:64 eng in
  let w0 = Gc.minor_words () in
  let m = E.run ~max_time:2112 eng in
  let words = Gc.minor_words () -. w0 in
  check "probe ran to the cap" false m.Metrics.completed;
  check "messages flowed" true (m.Metrics.messages > warm.Metrics.messages);
  words /. float_of_int (m.Metrics.work - warm.Metrics.work)

let test_step_allocates_nothing () =
  let deliver _ ~src:_ ~dst:_ = Adversary.Deliver in
  List.iter
    (fun (path, words) ->
      if words > 0.1 then
        Alcotest.failf "%s: %.2f minor words per step (at most 0.1)" path
          words)
    [
      ( "stream broadcast",
        words_per_step ~bcast:true ~unicast:false ~period:1 () );
      ( "per-destination multicast",
        words_per_step ~per_copy:true ~bcast:true ~unicast:false ~period:1 ()
      );
      ( "per-destination with a fault policy",
        words_per_step ~per_copy:true ~faults:deliver ~bcast:true
          ~unicast:false ~period:1 () );
      ( "unicasts", words_per_step ~bcast:false ~unicast:true ~period:1 () );
      ( "shared channel",
        words_per_step ~transport:(Config.Channel Config.Silent) ~bcast:true
          ~unicast:true ~period:16 () );
    ]

let suite =
  [
    Alcotest.test_case "trivial completes, W=pt, M=0" `Quick
      test_trivial_completes;
    Alcotest.test_case "executions >= t" `Quick test_executions_at_least_t;
    Alcotest.test_case "work counts all steps" `Quick
      test_work_counts_all_steps;
    Alcotest.test_case "per-processor work sums to W" `Quick
      test_per_proc_work_sums;
    Alcotest.test_case "messages multiple of p-1" `Quick
      test_messages_multiple_of_p_minus_1;
    Alcotest.test_case "d=0 handled" `Quick test_d_zero_treated_as_one;
    Alcotest.test_case "deterministic runs reproducible" `Quick
      test_deterministic_reproducible;
    Alcotest.test_case "randomized runs vary with seed" `Quick
      test_randomized_seed_sensitivity;
    Alcotest.test_case "engine forces a step when all delayed" `Quick
      test_forced_step_under_total_delay;
    Alcotest.test_case "crash all-but-one completes" `Quick
      test_crash_all_but_one_still_completes;
    Alcotest.test_case "last survivor cannot be crashed" `Quick
      test_survivor_rule;
    Alcotest.test_case "oracle would_perform" `Quick test_oracle_would_perform;
    Alcotest.test_case "oracle plan horizon" `Quick test_plan_horizon;
    Alcotest.test_case "lookahead side-effect free" `Quick
      test_lookahead_does_not_disturb;
    Alcotest.test_case "delays clamped into [1, d]" `Quick
      test_delay_clamped_to_d;
    Alcotest.test_case "timeout reported honestly" `Quick
      test_timeout_reported;
    Alcotest.test_case "trace records performs" `Quick test_trace_records;
    Alcotest.test_case "trace fresh flags" `Quick test_fresh_flags_in_trace;
    Alcotest.test_case "a step allocates nothing of the engine's" `Quick
      test_step_allocates_nothing;
    Alcotest.test_case "d past the ring cap refused" `Quick
      test_delay_past_ring_cap;
  ]
