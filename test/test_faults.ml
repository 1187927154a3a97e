(* The fault-injection subsystem (docs/FAULTS.md): lossy / duplicating /
   reordering networks, crash-recovery, and the invariant oracle.

   The headline claim pinned here is liveness under total message loss:
   no algorithm in the registry ever depended on delivery for
   termination (solo fallback), so even [lossy-all] — 100% drop — must
   complete, with the oracle auditing every tick. *)

open Doall_sim
open Doall_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let metrics_tuple (m : Metrics.t) =
  (m.Metrics.work, m.Metrics.messages, m.Metrics.sigma, m.Metrics.executions)

(* ------------------------------------------------------------------ *)
(* Headline: every algorithm stays live at 100% message loss.          *)

let test_total_loss_terminates () =
  List.iter
    (fun aspec ->
      let r =
        Runner.run ~check:true ~algo:aspec.Runner.algo_name ~adv:"lossy-all"
          ~p:5 ~t:15 ~d:3 ~seed:2 ()
      in
      let m = r.Runner.metrics in
      if not m.Metrics.completed then
        Alcotest.failf "%s did not terminate under 100%% message loss"
          aspec.Runner.algo_name;
      check (aspec.Runner.algo_name ^ " performed every task") true
        (m.Metrics.work >= 15))
    (* the quorum variants other suites register need a live quorum *)
    (List.filter
       (fun s -> s.Runner.liveness = `Any_survivor)
       (Runner.all_algorithms ()))

let test_drop_all_overlay () =
  (* the same network via the --faults overlay path instead of the
     registry adversary: a policy dropping every message on top of
     max-delay *)
  let drop_all _ ~src:_ ~dst:_ = Adversary.Drop in
  List.iter
    (fun algo ->
      let r =
        Runner.run ~check:true ~faults:drop_all ~algo
          ~adv:"max-delay" ~p:5 ~t:15 ~d:3 ~seed:2 ()
      in
      check (algo ^ " completes with drop_all overlay") true
        r.Runner.metrics.Metrics.completed)
    [ "trivial"; "paran1"; "padet"; "da-q4" ]

(* ------------------------------------------------------------------ *)
(* Probe counters: drops and duplicate replicas are observable, and    *)
(* the M accounting holds (drops count toward messages, dups do not).  *)

let run_snapped ~adv ~seed =
  let probe = Probe.create () in
  let r =
    Runner.run ~probe ~check:true ~algo:"paran1" ~adv ~p:6 ~t:24 ~d:3 ~seed ()
  in
  let snap =
    match r.Runner.obs with
    | Some s -> s
    | None -> Alcotest.fail "probed run returned no snapshot"
  in
  (r.Runner.metrics, fun name -> List.assoc name snap.Probe.counters)

let test_drop_counter () =
  let m, c = run_snapped ~adv:"lossy-half" ~seed:5 in
  check "some messages dropped" true (c "net.drops" > 0);
  check "no replicas under a pure-loss policy" true (c "net.dups" = 0);
  (* a dropped send was still paid for by the algorithm: M counts it *)
  check_int "sends = messages (drops included)" m.Metrics.messages
    (c "net.sends");
  check "drops <= sends" true (c "net.drops" <= c "net.sends");
  check "deliveries <= sends - drops" true
    (c "net.deliveries" <= c "net.sends" - c "net.drops")

let test_dup_counter () =
  let m, c = run_snapped ~adv:"dup-storm" ~seed:5 in
  check "some replicas created" true (c "net.dups" > 0);
  (* replicas are the network's doing, not the algorithm's: M excludes
     them, so sends still equals the messages metric *)
  check_int "sends = messages (dups excluded)" m.Metrics.messages
    (c "net.sends");
  check "replicas deliver on top of sends" true
    (c "net.deliveries" > c "net.sends" - c "net.drops" - m.Metrics.p)

(* ------------------------------------------------------------------ *)
(* Crash-recovery: restarts happen, are traced, and reset local state. *)

let test_flaky_restart_traced () =
  let r, tr =
    Runner.run_traced ~check:true ~algo:"padet" ~adv:"flaky-restart" ~p:4
      ~t:16 ~d:2 ~seed:1 ()
  in
  check "completed" true r.Runner.metrics.Metrics.completed;
  let restarts, crashes =
    Trace.fold tr ~init:(0, 0) ~f:(fun (rs, cs) ev ->
        match ev with
        | Trace.Restart _ -> (rs + 1, cs)
        | Trace.Crash _ -> (rs, cs + 1)
        | _ -> (rs, cs))
  in
  check "some crashes under flaky-restart" true (crashes > 0);
  check "some restarts under flaky-restart" true (restarts > 0);
  (* every restart revives a previously crashed processor *)
  check "restarts <= crashes" true (restarts <= crashes);
  (* the survivor (pid 0) never crashes: flaky keeps it up *)
  Trace.iter tr (fun ev ->
      match ev with
      | Trace.Crash { pid = 0; time } ->
        Alcotest.failf "survivor pid 0 crashed at t=%d" time
      | _ -> ())

let test_restart_changes_outcome () =
  (* same flaky schedule with and without the revive rule: recovering
     processors add work the crash-only run cannot *)
  let run restart =
    let p = 4 and t = 16 and d = 2 in
    let crash, revive =
      Doall_adversary.Crash.flaky ~survivor:0 ~up:4 ~down:2 ()
    in
    let base =
      Adversary.make ~name:"flaky"
        ~schedule:Doall_adversary.Schedule.all
        ~delay:(Adversary.Constant d)
        ~crash
        ?restart:(if restart then Some revive else None)
        ()
    in
    let cfg = Config.make ~seed:1 ~p ~t () in
    Engine.run_packed
      ((Runner.find_algo "padet").Runner.make ())
      cfg ~d ~adversary:base ~check:true ()
  in
  let with_restart = run true and without = run false in
  check "both complete (survivor rule)" true
    (with_restart.Metrics.completed && without.Metrics.completed);
  check "recovery changes the execution" true
    (metrics_tuple with_restart <> metrics_tuple without)

(* ------------------------------------------------------------------ *)
(* Run_timeout carries the partial metrics.                            *)

let test_run_timeout_partial_metrics () =
  match
    Runner.run ~max_time:3 ~algo:"paran1" ~adv:"max-delay" ~p:8 ~t:64 ~d:4 ()
  with
  | _ -> Alcotest.fail "expected Run_timeout at max_time:3"
  | exception Runner.Run_timeout { spec; metrics } ->
    check "spec names the run" true (spec.Runner.spec_algo = "paran1");
    check "partial metrics not completed" true (not metrics.Metrics.completed);
    check "sigma is the cap" true (metrics.Metrics.sigma <= 3);
    check "partial work was counted" true (metrics.Metrics.work > 0)

(* ------------------------------------------------------------------ *)
(* The oracle actually audits when asked, and stays silent otherwise.  *)

let test_oracle_ticks_checked () =
  let (module A : Algorithm.S) = (Runner.find_algo "padet").Runner.make () in
  let module E = Engine.Make (A) in
  let cfg = Config.make ~seed:1 ~p:4 ~t:16 () in
  let adversary = (Runner.find_adv "chaos").Runner.instantiate ~p:4 ~t:16 ~d:2 in
  let eng = E.create ~check:true cfg ~d:2 ~adversary in
  let m = E.run eng in
  check "completed" true m.Metrics.completed;
  (match E.checker eng with
   | None -> Alcotest.fail "check:true attached no oracle"
   | Some oc ->
     check "oracle audited every tick" true
       (Oracle.ticks_checked oc >= m.Metrics.sigma));
  let unchecked = E.create cfg ~d:2 ~adversary in
  check "default is unchecked" true (E.checker unchecked = None)

let test_checked_runs_bit_identical () =
  (* the oracle only reads: metrics with and without it are identical,
     including under a fault-heavy adversary *)
  List.iter
    (fun adv ->
      let run chk =
        (Runner.run ~check:chk ~algo:"paran1" ~adv ~p:6 ~t:24 ~d:3 ~seed:7 ())
          .Runner.metrics
      in
      Alcotest.(check (list int))
        (adv ^ ": per-proc work identical checked/unchecked")
        (Array.to_list (run false).Metrics.per_proc_work)
        (Array.to_list (run true).Metrics.per_proc_work);
      check (adv ^ ": metrics identical checked/unchecked") true
        (metrics_tuple (run false) = metrics_tuple (run true)))
    [ "fair"; "chaos"; "flaky-restart" ]

(* ------------------------------------------------------------------ *)
(* Chaos registry + determinism + the CLI fault-spec parser.           *)

let test_chaos_adversaries_complete_checked () =
  List.iter
    (fun adv ->
      let r =
        Runner.run ~check:true ~algo:"paran2" ~adv ~p:5 ~t:15 ~d:3 ~seed:3 ()
      in
      check (adv ^ " completes under audit") true
        r.Runner.metrics.Metrics.completed)
    [ "lossy-half"; "lossy-all"; "dup-storm"; "flaky-restart"; "chaos" ]

let test_faulty_runs_deterministic () =
  let faults =
    Doall_adversary.Fault.all
      [
        Doall_adversary.Fault.drop ~prob:0.3;
        Doall_adversary.Fault.duplicate ~copies:2 ~prob:0.2;
        Doall_adversary.Fault.reorder ~prob:0.3;
      ]
  in
  let run () =
    (Runner.run ~check:true ~faults ~algo:"paran1" ~adv:"uniform-delay" ~p:6
       ~t:24 ~d:3 ~seed:11 ())
      .Runner.metrics
  in
  check "same seed, same faulty execution" true
    (metrics_tuple (run ()) = metrics_tuple (run ()))

let test_of_spec () =
  (match Doall_adversary.Fault.of_spec "drop=0.3,dup=0.2x2,reorder=0.1" with
   | Error e -> Alcotest.failf "valid spec rejected: %s" e
   | Ok (_, name) ->
     check "normalized name mentions every clause" true
       (let has s =
          let re = Str.regexp_string s in
          try ignore (Str.search_forward re name 0); true
          with Not_found -> false
        in
        has "drop" && has "dup" && has "reorder"));
  List.iter
    (fun bad ->
      match Doall_adversary.Fault.of_spec bad with
      | Ok (_, name) -> Alcotest.failf "bogus spec %S accepted as %s" bad name
      | Error _ -> ())
    [ "bogus"; "drop"; "drop=1.5"; "dup=0.2xx2"; "drop=0.1,junk=3" ]

let test_name_fixpoint =
  (* of_spec returns a canonical name: parsing that name again returns
     it unchanged (a fixpoint) *)
  QCheck2.Test.make ~name:"Fault.of_spec name is a fixpoint" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 1000) (int_range 0 1000) (int_range 1 8))
    (fun (a, b, copies) ->
      let module F = Doall_adversary.Fault in
      let spec =
        Printf.sprintf "drop=%g,dup=%gx%d,reorder=%g"
          (float_of_int a /. 1000.)
          (float_of_int b /. 1000.)
          copies
          (float_of_int (1000 - a) /. 1000.)
      in
      match F.of_spec spec with
      | Error e -> QCheck2.Test.fail_reportf "%s rejected: %s" spec e
      | Ok (_, name) -> (
        match F.of_spec name with
        | Error e -> QCheck2.Test.fail_reportf "%s unparsable: %s" name e
        | Ok (_, name') ->
          if name <> name' then
            QCheck2.Test.fail_reportf "not a fixpoint: %s -> %s" name name';
          true))

let suite =
  [
    Alcotest.test_case "every algorithm survives 100% loss" `Quick
      test_total_loss_terminates;
    Alcotest.test_case "drop_all as a --faults overlay" `Quick
      test_drop_all_overlay;
    Alcotest.test_case "net.drops counter + M accounting" `Quick
      test_drop_counter;
    Alcotest.test_case "net.dups counter + M accounting" `Quick
      test_dup_counter;
    Alcotest.test_case "flaky-restart crashes, revives, traces" `Quick
      test_flaky_restart_traced;
    Alcotest.test_case "recovery changes the execution" `Quick
      test_restart_changes_outcome;
    Alcotest.test_case "Run_timeout carries partial metrics" `Quick
      test_run_timeout_partial_metrics;
    Alcotest.test_case "oracle audits every tick when attached" `Quick
      test_oracle_ticks_checked;
    Alcotest.test_case "oracle is read-only (bit-identical runs)" `Quick
      test_checked_runs_bit_identical;
    Alcotest.test_case "chaos registry completes under audit" `Quick
      test_chaos_adversaries_complete_checked;
    Alcotest.test_case "faulty runs deterministic in the seed" `Quick
      test_faulty_runs_deterministic;
    Alcotest.test_case "--faults spec parser" `Quick test_of_spec;
    QCheck_alcotest.to_alcotest test_name_fixpoint;
  ]
