(* The shared-broadcast stream and its epoch digests are pure transport
   optimizations: a run under a constant-latency adversary must be
   observably identical to the same run recast as per-copy
   ([Adversary.per_copy]), which forces the general per-destination
   path with the same delay on every copy. These tests pin that
   equivalence across algorithms and every registry adversary, pin that
   the latency profile alone decides each copy's delay on every path
   (even against a [delay] closure that disagrees with it), and pin the
   xl cell shapes' determinism across domain-pool sizes. *)

open Doall_sim
open Doall_adversary
open Doall_core

(* fair scheduling, every message takes the full [d] *)
let max_delay = Adversary.make ~name:"max-delay" ~delay:Delay.maximal ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let metrics_key (m : Metrics.t) =
  (* everything deterministic and wall-clock-free *)
  ( (m.Metrics.work, m.Metrics.messages, m.Metrics.sigma),
    (m.Metrics.executions, m.Metrics.completed, m.Metrics.halted),
    (m.Metrics.crashed, Array.to_list m.Metrics.per_proc_work) )

let run ?(p = 16) ?(t = 96) ?(d = 5) ?(seed = 3) algo adv =
  let cfg = Config.make ~seed ~p ~t () in
  Engine.run_packed algo cfg ~d ~adversary:adv ~check:true ()

let algos () =
  [
    ("paran1", Algo_pa.make_ran1 ());
    ("paran2", Algo_pa.make_ran2 ());
    ("padet", Algo_pa.make_det ());
    ("paran1-b3", Algo_pa.make_ran1 ~broadcast_every:3 ());
    ("paran1-single", Algo_pa.make_ran1 ~gossip:`Single ());
    ("paran1-f2", Algo_pa.make_ran1 ~fanout:2 ());
    ("da-q4", Algo_da.make ~q:4 ());
    ("da-q2", Algo_da.make ~q:2 ());
  ]

(* Every registry adversary at the suite's instance, plus a strategy
   that `doall synth` found against DA(4) (the benchmark's
   adaptive-adversary cell). Instantiated per run: lb-det and lb-rand
   are stateful. *)
let synth_winner = "strategy:sched=all;delay=bimodal:0.783;crash=flaky:4:1"

let adversaries () =
  List.map (fun (s : Runner.adv_spec) -> s.Runner.adv_name) Runner.adversaries
  @ [ synth_winner ]

let instantiate name =
  (Runner.find_adv name).Runner.instantiate ~p:16 ~t:96 ~d:5

let test_stream_equals_slow_path () =
  (* The keystone: declared vs per-copy runs agree on every metric, for
     every (algorithm x adversary) pair — including crash-without-
     recovery, where halted and crashed pids deactivate the stream. *)
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun vname ->
          let fast = run algo (instantiate vname) in
          let slow = run algo (Adversary.per_copy (instantiate vname)) in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s: declared = per-copy" aname vname)
            true
            (metrics_key fast = metrics_key slow))
        (adversaries ()))
    (algos ())

let test_profile_decides_every_path () =
  (* A [delay] closure put beside a constant profile by a record update
     is never asked: the streamed run, the per-copy run and a run the
     fault policy forces through the per-copy send all read the
     profile's constant. Against uniform draws the closure would also
     move the adversary's RNG. *)
  let deliver _ ~src:_ ~dst:_ = Adversary.Deliver in
  List.iter
    (fun (label, adv, expect) ->
      List.iter
        (fun (path, adv) ->
          let m = run ~p:8 ~t:64 ~d:4 ~seed:0 (Algo_pa.make_ran1 ()) adv in
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%s, %s: W/M/sigma" label path)
            expect
            (m.Metrics.work, m.Metrics.messages, m.Metrics.sigma))
        [
          ("streamed", adv);
          ("per-copy", Adversary.per_copy adv);
          ("faulted", { adv with Adversary.faults = Some deliver });
        ])
    [
      ( "Constant 3 beside a latency-1 closure",
        { (Adversary.make ~name:"fixed-3" ~delay:(Adversary.Constant 3) ())
          with
          Adversary.delay = (fun _ ~src:_ ~dst:_ -> 1) },
        (152, 1050, 18) );
      ( "Bound beside a uniform closure",
        { (Adversary.make ~name:"max" ~delay:Adversary.Bound ()) with
          Adversary.delay =
            (fun o ~src:_ ~dst:_ -> 1 + Rng.int o.Adversary.rng o.Adversary.d)
        },
        (160, 1106, 19) );
    ]

let test_variable_latency_not_streamed () =
  (* uniform_delay draws from the adversary RNG per destination and is
     declared Variable: runs must keep the historical per-destination
     behaviour (pinned here via a golden triple, guarding against an
     accidental stream on the RNG-dependent path). *)
  let m = run (Algo_pa.make_det ()) Adversary.uniform_delay in
  check "completed" true m.Metrics.completed;
  check "uniform-delay differs from fixed-1" true
    (metrics_key m <> metrics_key (run (Algo_pa.make_det ()) Adversary.fair))

let test_faulted_declaration_is_safe () =
  (* Fault injection (dup / reorder / drop) gates the stream off even
     under a constant profile: the declared and per-copy runs still
     agree, now both on the general path. *)
  let faulted name policy =
    (name, Adversary.make ~name ~faults:policy ())
  in
  List.iter
    (fun (vname, adv) ->
      List.iter
        (fun (aname, algo) ->
          let fast = run ~seed:9 algo adv in
          let slow = run ~seed:9 algo (Adversary.per_copy adv) in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s: faults force one path" aname vname)
            true
            (metrics_key fast = metrics_key slow))
        [ ("paran1", Algo_pa.make_ran1 ()); ("da-q4", Algo_da.make ~q:4 ()) ])
    [
      faulted "dup-storm" (Fault.duplicate ~copies:2 ~prob:0.3);
      faulted "reorder" (Fault.reorder ~prob:0.4);
      faulted "lossy" (Fault.drop ~prob:0.2);
    ]

let test_recovery_gates_stream_off () =
  (* A restart policy keeps the stream off even under a constant profile.
     The epoch digest folds in the receiver's own broadcasts, which is
     harmless only while the receiver's knowledge already contains them;
     a restart resets that knowledge, so a restarted pid would re-learn
     its own pre-crash work from the digest and skip re-doing it. The
     flaky strategy cells are the ones where the declared run would
     differ (paran1 reads W=236 streamed against W=254 per-copy). *)
  let crash, restart = Crash.flaky ~survivor:0 ~up:6 ~down:3 () in
  let flaky = Adversary.make ~name:"flaky" ~crash ~restart () in
  let strategy spec =
    match Strategy.of_spec spec with
    | Ok s -> Strategy.into s
    | Error e -> Alcotest.fail e
  in
  let flaky44 = strategy "sched=all;delay=max;crash=flaky:4:4" in
  List.iter
    (fun (label, algo, adv) ->
      let fast = run (algo ()) adv in
      let slow = run (algo ()) (Adversary.per_copy adv) in
      check (label ^ ": declared = per-copy") true
        (metrics_key fast = metrics_key slow);
      check (label ^ " completes") true fast.Metrics.completed)
    [
      ("paran1 flaky-restart", (fun () -> Algo_pa.make_ran1 ()), flaky);
      ("paran1 flaky:4:4", (fun () -> Algo_pa.make_ran1 ()), flaky44);
      ("padet flaky:4:4", (fun () -> Algo_pa.make_det ()), flaky44);
    ]

let test_xl_shape_jobs_determinism () =
  (* xl-shaped mini cells (p >> t fleet and t >> p task set) through the
     domain pool: results must be bit-identical at jobs 1, 2 and 4 —
     the shared-stream state is per-run, never shared across domains. *)
  let specs =
    Runner.grid
      ~seeds:[ 1; 2 ]
      ~algos:[ "paran1"; "da-q4" ]
      ~advs:[ "max-delay" ]
      ~points:[ (128, 32, 4); (16, 512, 6) ]
      ()
  in
  let key (r : Runner.result) =
    (r.Runner.metrics, r.Runner.algo, r.Runner.adv, r.Runner.seed)
  in
  let base = List.map key (Runner.run_grid ~jobs:1 specs) in
  List.iter
    (fun jobs ->
      let got = List.map key (Runner.run_grid ~jobs specs) in
      check (Printf.sprintf "jobs=%d identical to jobs=1" jobs) true
        (got = base))
    [ 2; 4 ]

let test_messages_count_multicast () =
  (* M parity on the stream: one multicast = p-1 point-to-point sends,
     exactly as on the general path (Definition 2.2). *)
  let p = 16 in
  let m = run ~p (Algo_pa.make_ran1 ()) max_delay in
  check_int "M is a multiple of p-1" 0 (m.Metrics.messages mod (p - 1))

let suite =
  [
    Alcotest.test_case "stream = per-destination path (all pairs)" `Quick
      test_stream_equals_slow_path;
    Alcotest.test_case "variable latency stays general" `Quick
      test_variable_latency_not_streamed;
    Alcotest.test_case "fault injection gates the stream" `Quick
      test_faulted_declaration_is_safe;
    Alcotest.test_case "crash recovery gates the stream" `Quick
      test_recovery_gates_stream_off;
    Alcotest.test_case "xl shapes: jobs 1/2/4 bit-identical" `Quick
      test_xl_shape_jobs_determinism;
    Alcotest.test_case "multicast M parity" `Quick test_messages_count_multicast;
    Alcotest.test_case "the latency profile decides every path" `Quick
      test_profile_decides_every_path;
  ]
