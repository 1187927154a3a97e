(* The adversary-strategy DSL and the worst-case synthesis search
   (docs/FAULTS.md "Strategy DSL").

   Pinned here: spec round-tripping (to_spec/of_spec is a fixpoint over
   random strategies in every space), the latency profile a strategy
   compiles to (its delay gene's, [Variable] after a phase change) and
   the engine keeping faulted constant runs off the stream,
   bit-determinism of strategy-compiled adversaries across
   --jobs, bit-determinism of the whole search (same seed => same winning
   spec, at any jobs), and a soak: a small-budget search against every
   registry algorithm with the oracle on finds zero violations and never
   livelocks. *)

open Doall_sim
open Doall_core
open Doall_adversary

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let spaces =
  [ Strategy.Full; Strategy.Live; Strategy.In_model; Strategy.Quorum_safe ]

(* -- spec round-trip ----------------------------------------------- *)

let test_roundtrip_qcheck =
  QCheck2.Test.make ~name:"to_spec/of_spec fixpoint over random strategies"
    ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let space = List.nth spaces (Rng.int rng 4) in
      let p = 1 + Rng.int rng 16 in
      let t = 1 + Rng.int rng 64 in
      let d = 1 + Rng.int rng 12 in
      let str = Strategy.random ~rng ~space ~p ~t ~d () in
      let spec = Strategy.to_spec str in
      match Strategy.of_spec spec with
      | Error e -> QCheck2.Test.fail_reportf "%s unparsable: %s" spec e
      | Ok str' ->
        let spec' = Strategy.to_spec str' in
        if spec <> spec' then
          QCheck2.Test.fail_reportf "not a fixpoint: %s -> %s" spec spec';
        (* mutate and crossover stay inside the printable space *)
        let m = Strategy.mutate ~rng ~space ~p ~t ~d str in
        let x = Strategy.crossover ~rng ~space ~p str m in
        (match Strategy.of_spec (Strategy.to_spec m) with
        | Error e ->
          QCheck2.Test.fail_reportf "mutant unparsable: %s: %s"
            (Strategy.to_spec m) e
        | Ok _ -> ());
        (match Strategy.of_spec (Strategy.to_spec x) with
        | Error e ->
          QCheck2.Test.fail_reportf "crossover unparsable: %s: %s"
            (Strategy.to_spec x) e
        | Ok _ -> ());
        true)

let test_of_spec_errors () =
  List.iter
    (fun spec ->
      match Strategy.of_spec spec with
      | Ok _ -> Alcotest.failf "of_spec accepted %S" spec
      | Error _ -> ())
    [
      "";
      "sched=warp";
      "delay=const:x";
      "sched=all;sched=all";
      "crash=at:1:2";
      "fault=drop";
      "nonsense";
      "sched=all;delay=max;for=0x";
    ]

let test_of_spec_normalizes () =
  (* parsing clamps and canonicalizes exactly like [make] *)
  List.iter
    (fun (input, expect) ->
      match Strategy.of_spec input with
      | Error e -> Alcotest.failf "of_spec %S: %s" input e
      | Ok t -> check_str input expect (Strategy.to_spec t))
    [
      ("sched=all;delay=max", "sched=all;delay=max");
      (* probabilities quantized to 3 decimals *)
      ("sched=all;delay=max;fault=drop:0.12345",
       "sched=all;delay=max;fault=drop:0.123");
      (* out-of-range genes clamped *)
      ("sched=all;delay=const:0", "sched=all;delay=const:1");
      ("sched=rr:0;delay=max", "sched=rr:1;delay=max");
      (* instance-sized genes are not capped at 4096 *)
      ("sched=rr:5000", "sched=rr:5000;delay=const:1");
      (* non-final phase gets a duration *)
      ("sched=all;delay=max|sched=all;delay=const:1",
       "sched=all;delay=max;for=1|sched=all;delay=const:1");
    ]

(* -- latency profile and the stream gate ---------------------------- *)

let strategy_of_spec spec =
  match Strategy.of_spec spec with
  | Error e -> Alcotest.failf "of_spec %S: %s" spec e
  | Ok t -> t

(* the broadcast log's peak occupancy over a paran1 run: 0 unless the
   run took the stream *)
let peak_stream_pending spec =
  let probe = Probe.create () in
  let cfg = Config.make ~seed:1 ~p:16 ~t:96 () in
  let adversary = Strategy.into (strategy_of_spec spec) in
  ignore
    (Engine.run_packed (Algo_pa.make_ran1 ()) cfg ~d:5 ~adversary ~probe ());
  snd (List.assoc "net.stream_pending" (Probe.snapshot probe).Probe.gauges)

let test_latency_pins () =
  let pin spec expect =
    let t = strategy_of_spec spec in
    if (Strategy.into t).Adversary.latency <> expect then
      Alcotest.failf "%s: wrong latency profile" spec
  in
  pin "sched=all;delay=const:3" (Adversary.Fixed 3);
  pin "sched=laggard;delay=const:1;crash=staggered:4" (Adversary.Fixed 1);
  pin "sched=all;delay=max" Adversary.Maximal;
  pin "sched=all;delay=uniform" Adversary.Variable;
  (* the profile is the delay gene's, faults or not *)
  pin "sched=all;delay=const:3;fault=drop:0.5" (Adversary.Fixed 3);
  pin "sched=all;delay=max;fault=dup:0.2:2" Adversary.Maximal;
  (* a phase change makes the delay per copy *)
  pin "sched=all;delay=const:3;for=8|sched=all;delay=const:3"
    Adversary.Variable;
  (* faults perturb delivery, so the engine keeps those runs off the
     stream itself; the fault-free twin shows the gauge does record *)
  check "fault-free constant run streams" true
    (peak_stream_pending "sched=all;delay=const:3" > 0);
  List.iter
    (fun spec -> Alcotest.(check int) (spec ^ ": never streamed") 0
        (peak_stream_pending spec))
    [ "sched=all;delay=const:3;fault=drop:0.5";
      "sched=all;delay=max;fault=dup:0.2:2" ]

(* -- determinism of compiled strategies across jobs ----------------- *)

let strategy_specs =
  [
    "strategy:sched=laggard;delay=max";
    "strategy:sched=all;delay=uniform;crash=flaky:4:2;fault=drop:0.4";
    "strategy:sched=harmonic;delay=stage:3;crash=staggered:6;for=20|sched=all;delay=const:2;fault=dup:0.3:2";
  ]

let grid_metrics ~jobs =
  let specs =
    List.concat_map
      (fun adv ->
        List.map
          (fun algo -> Runner.spec ~seed:5 ~algo ~adv ~p:8 ~t:40 ~d:4 ())
          [ "paran1"; "da-q4"; "padet" ])
      strategy_specs
  in
  List.map
    (fun (r : Runner.result) ->
      (r.Runner.metrics.Metrics.work, r.Runner.metrics.Metrics.messages,
       r.Runner.metrics.Metrics.sigma))
    (Runner.run_grid ~jobs ~check:true specs)

let test_strategy_adv_jobs_deterministic () =
  let m1 = grid_metrics ~jobs:1 in
  let m2 = grid_metrics ~jobs:2 in
  let m4 = grid_metrics ~jobs:4 in
  check "jobs 1 = jobs 2" true (m1 = m2);
  check "jobs 1 = jobs 4" true (m1 = m4)

(* -- determinism of the search itself ------------------------------- *)

let small_search ~jobs =
  Worstcase.search ~seed:3 ~population:6 ~jobs ~algo:"paran1" ~p:6 ~t:24
    ~d:3 ~budget:18 ()

let test_search_deterministic () =
  let a = small_search ~jobs:1 in
  let b = small_search ~jobs:1 in
  check_str "same seed, same best spec" a.Synth.best_spec b.Synth.best_spec;
  Alcotest.(check (float 0.0))
    "same seed, same best score" a.Synth.best_score b.Synth.best_score;
  Alcotest.(check int) "same evals" a.Synth.evals b.Synth.evals;
  let c = small_search ~jobs:2 in
  let d = small_search ~jobs:4 in
  check_str "jobs 2, same best spec" a.Synth.best_spec c.Synth.best_spec;
  check_str "jobs 4, same best spec" a.Synth.best_spec d.Synth.best_spec;
  (* and the winner replays bit-identically through the runner *)
  let r =
    Runner.run_spec ~check:true
      (Runner.spec ~seed:3 ~algo:"paran1"
         ~adv:("strategy:" ^ a.Synth.best_spec)
         ~p:6 ~t:24 ~d:3 ())
  in
  Alcotest.(check int)
    "winner replays to the searched work" a.Synth.best_eval.Synth.e_work
    r.Runner.metrics.Metrics.work

(* -- the search beats the hand registry in the paper's model -------- *)

let test_search_beats_hand_in_model () =
  let p = 8 and t = 32 and d = 4 in
  let hand =
    List.fold_left
      (fun acc adv ->
        let r =
          Runner.run_spec ~check:true
            (Runner.spec ~seed:1 ~algo:"da-q4" ~adv ~p ~t ~d ())
        in
        max acc r.Runner.metrics.Metrics.work)
      0
      [ "max-delay"; "laggard"; "lb-det"; "lb-rand"; "flaky-restart" ]
  in
  let o =
    Worstcase.search ~seed:1 ~population:6 ~space:Strategy.In_model
      ~algo:"da-q4" ~p ~t ~d ~budget:16 ()
  in
  check
    (Printf.sprintf "synth (%d) >= hand (%d)" o.Synth.best_eval.Synth.e_work
       hand)
    true
    (o.Synth.best_eval.Synth.e_work >= hand);
  check "no violations" true (o.Synth.violations = [])

(* -- soak: oracle-on search over every registry algorithm ----------- *)

let test_soak_every_algorithm () =
  Doall_quorum.Register.install ();
  List.iter
    (fun aspec ->
      let algo = aspec.Runner.algo_name in
      let o =
        Worstcase.search ~seed:7 ~population:4 ~algo ~p:6 ~t:20 ~d:3
          ~budget:8 ()
      in
      if o.Synth.violations <> [] then
        Alcotest.failf "%s: oracle violation under %s" algo
          (fst (List.hd o.Synth.violations));
      if o.Synth.capped > 0 then
        Alcotest.failf "%s: %d candidate run(s) livelocked (hit the cap)"
          algo o.Synth.capped;
      check (algo ^ " found nonzero work") true
        (o.Synth.best_eval.Synth.e_work > 0))
    (Runner.all_algorithms ())

(* -- fuzz-case derivation is deterministic -------------------------- *)

let test_fuzz_gen_deterministic () =
  List.iter
    (fun quorum_safe ->
      let a = Fuzz_gen.case ~seed:4242 ~quorum_safe in
      let b = Fuzz_gen.case ~seed:4242 ~quorum_safe in
      check "same dims" true
        ((a.Fuzz_gen.p, a.Fuzz_gen.t, a.Fuzz_gen.d)
        = (b.Fuzz_gen.p, b.Fuzz_gen.t, b.Fuzz_gen.d));
      check_str "same strategy"
        (Strategy.to_spec a.Fuzz_gen.strategy)
        (Strategy.to_spec b.Fuzz_gen.strategy))
    [ false; true ]

let suite =
  [
    QCheck_alcotest.to_alcotest test_roundtrip_qcheck;
    Alcotest.test_case "of_spec rejects malformed specs" `Quick
      test_of_spec_errors;
    Alcotest.test_case "of_spec normalizes like make" `Quick
      test_of_spec_normalizes;
    Alcotest.test_case "latency declaration pins (stream gate)" `Quick
      test_latency_pins;
    Alcotest.test_case "strategy adversaries bit-identical at any --jobs"
      `Quick test_strategy_adv_jobs_deterministic;
    Alcotest.test_case "search deterministic (seed, jobs, replay)" `Slow
      test_search_deterministic;
    Alcotest.test_case "search >= hand registry in the paper's model" `Slow
      test_search_beats_hand_in_model;
    Alcotest.test_case "soak: oracle-on search over every algorithm" `Slow
      test_soak_every_algorithm;
    Alcotest.test_case "fuzz-case derivation deterministic" `Quick
      test_fuzz_gen_deterministic;
  ]
