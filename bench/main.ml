(* The experiment harness driver. The experiments themselves (one per
   theorem/figure of the paper — see EXPERIMENTS.md) are declarative
   specs in lib/exp/catalog.ml, shared with `doall exp`; this executable
   only dispatches ids and keeps the wall-clock work that has no place
   in the registry: the perf grid behind BENCH_N.json, the Bechamel
   microbenchmarks, and the probe-overhead measurement.

   Run all experiments with `dune exec bench/main.exe`, a subset with
   e.g. `dune exec bench/main.exe -- e2 e6 fig1`, or `micro` / `perf` /
   `obs` for the performance targets. `--list` shows every registered
   experiment with its one-line doc. `perf` and `xl` write their
   default BENCH_2.json / BENCH_4.json only if that file does not exist
   yet; the committed ones are records, so pass `--out PATH`. The
   benchmark proper is benchsuite/ (see BENCHMARK.json). *)

open Doall_sim
open Doall_core
open Doall_perms
open Doall_analysis
module Exp = Doall_exp.Exp
module Catalog = Doall_exp.Catalog
module Json = Doall_obs.Export.Json
module Progress = Doall_obs.Progress

(* Parallelism for the grid-shaped experiments (seed averaging, e17's
   bound-fitting sweep, the perf grid). One pool for the whole process,
   sized by --jobs; Pool.create ~jobs:1 degrades to inline execution. *)
let jobs = ref (Pool.default_jobs ())
let pool_ref : Pool.t option ref = ref None

let shared_pool () =
  match !pool_ref with
  | Some pool -> pool
  | None ->
    let pool = Pool.create ~jobs:!jobs () in
    pool_ref := Some pool;
    pool

(* Live grid progress for the perf arms: Progress only renders on a tty,
   so batch/CI output is untouched. [f] receives an [on_cell] callback
   for Runner.run_grid. *)
let with_progress ~label ~total f =
  let pr = Progress.create ~total ~label () in
  Fun.protect
    ~finally:(fun () -> Progress.finish pr)
    (fun () ->
      f (fun ~finished:_ ~total:_ (_ : Runner.result) -> Progress.tick pr))

(* With --csv DIR on the command line, every table is also written as a
   CSV artifact for downstream analysis, under a stable name. *)
let csv_dir : string option ref = ref None

let emit_named name tbl =
  Table.print tbl;
  match !csv_dir with
  | None -> ()
  | Some dir ->
    Table.write_csv tbl ~path:(Filename.concat dir (name ^ ".csv"))

(* ------------------------------------------------------------------ *)
(* perf: the wall-clock grid behind BENCH_N.json (see docs/PERFORMANCE.md).

   Scenarios are broadcast-heavy on purpose: PA-family algorithms
   broadcast on every performing step, so these runs live in the
   delivery + union_into hot path the calendar ring and the word-packed
   bitsets rearchitected. *)

let perf_scenarios ~quick =
  if quick then
    [ ("paran1", "max-delay", 64, 512, 8); ("da-q4", "max-delay", 64, 512, 8) ]
  else
    [
      ("paran1", "max-delay", 256, 4096, 16);
      ("padet", "max-delay", 256, 4096, 16);
      ("da-q4", "max-delay", 256, 4096, 16);
      ("paran1", "uniform-delay", 128, 2048, 32);
    ]

(* Wall-clock of the identical scenarios (seed 42) measured on the
   pre-rewrite engine — binary heap delivery, byte-packed bitsets,
   O(p)-scan scheduling — at commit b5fef56, in this repo's reference
   container, 2026-08-06. The perf run reports speedups against these. *)
let perf_seed_baseline =
  [
    ("paran1/max-delay/p256/t4096/d16", 17.351);
    ("padet/max-delay/p256/t4096/d16", 16.220);
    ("da-q4/max-delay/p256/t4096/d16", 0.159);
    ("paran1/uniform-delay/p128/t2048/d32", 1.843);
  ]

(* The end-to-end parallel grid: every scenario x seeds 1..6, fanned
   across Runner.run_grid at several domain counts. Per-run metrics are
   asserted byte-identical across all arms (the pool's determinism
   contract); the wall-clock ratio against the jobs=1 arm is the
   speedup row of BENCH_2.json. *)
let grid_scenarios ~quick =
  if quick then
    [ ("paran1", "max-delay", 64, 512, 8); ("da-q4", "max-delay", 64, 512, 8) ]
  else
    [
      ("paran1", "max-delay", 128, 2048, 16);
      ("padet", "max-delay", 128, 2048, 16);
      ("da-q4", "max-delay", 256, 4096, 16);
      ("paran1", "uniform-delay", 128, 2048, 32);
    ]

let grid_seeds ~quick = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6 ]

(* Compare the deterministic payload only: [wall_s] is machine noise and
   [obs] is None/None here, but keying on the fields keeps this honest if
   more nondeterministic ones appear. *)
let same_metrics (a : Runner.result list) (b : Runner.result list) =
  let key (r : Runner.result) =
    (r.Runner.metrics, r.Runner.algo, r.Runner.adv, r.Runner.seed)
  in
  List.length a = List.length b
  && List.for_all2 (fun x y -> key x = key y) a b

let perf ~quick ~out () =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "perf: wall-clock grid%s (seed 42)"
           (if quick then " [--quick]" else ""))
      ~columns:[ "scenario"; "W"; "M"; "wall_s"; "seed_s"; "speedup" ]
  in
  let results =
    List.map
      (fun (algo, adv, p, t, d) ->
        let key = Printf.sprintf "%s/%s/p%d/t%d/d%d" algo adv p t d in
        let t0 = Unix.gettimeofday () in
        (* run_spec reports a capped run as metrics.completed = false
           instead of raising Run_timeout: one slow cell becomes an
           annotated row, not an aborted grid *)
        let m =
          (Runner.run_spec (Runner.spec ~seed:42 ~algo ~adv ~p ~t ~d ()))
            .Runner.metrics
        in
        let wall = Unix.gettimeofday () -. t0 in
        let seed_s = List.assoc_opt key perf_seed_baseline in
        Table.add_row tbl
          [
            (if m.Metrics.completed then key else key ^ " (capped)");
            Table.cell_int m.Metrics.work;
            Table.cell_int m.Metrics.messages;
            Printf.sprintf "%.3f" wall;
            (match seed_s with Some s -> Printf.sprintf "%.3f" s | None -> "-");
            (match seed_s with
             | Some s -> Printf.sprintf "%.1fx" (s /. wall)
             | None -> "-");
          ];
        (key, algo, adv, p, t, d, m, wall, seed_s))
      (perf_scenarios ~quick)
  in
  Table.add_note tbl
    "seed_s: same scenario on the pre-calendar-ring/pre-word-packed engine \
     (commit b5fef56); wall-clock is machine-dependent, the W/M columns are \
     not (golden-pinned)";
  emit_named "perf-scenarios" tbl;
  (* -- the parallel grid -- *)
  let specs =
    List.concat_map
      (fun (algo, adv, p, t, d) ->
        List.map
          (fun seed -> Runner.spec ~seed ~algo ~adv ~p ~t ~d ())
          (grid_seeds ~quick))
      (grid_scenarios ~quick)
  in
  let arms =
    List.sort_uniq compare
      (if quick then [ 1; !jobs ] else [ 1; 2; 4; !jobs ])
  in
  (* Best-of-N wall clock per arm, with the major heap compacted before
     each round: the container's co-tenant load and leftover major-heap
     state from the scenario table above otherwise dominate the
     between-arm differences. Metrics are taken from the last round and
     asserted identical across arms below. *)
  let rounds = if quick then 1 else 2 in
  let measured =
    List.map
      (fun k ->
        let best = ref infinity and last = ref [] in
        for round = 1 to rounds do
          Gc.compact ();
          let t0 = Unix.gettimeofday () in
          let rs =
            with_progress
              ~label:(Printf.sprintf "perf grid j%d round %d/%d" k round rounds)
              ~total:(List.length specs)
              (fun on_cell -> Runner.run_grid ~jobs:k ~on_cell specs)
          in
          let wall = Unix.gettimeofday () -. t0 in
          if wall < !best then best := wall;
          last := rs
        done;
        (k, !best, !last))
      arms
  in
  let _, wall1, base_results =
    List.find (fun (k, _, _) -> k = 1) measured
  in
  let grid_tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "perf: end-to-end parallel grid, %d runs (%d scenarios x %d seeds)"
           (List.length specs)
           (List.length (grid_scenarios ~quick))
           (List.length (grid_seeds ~quick)))
      ~columns:[ "jobs"; "wall_s"; "speedup vs jobs=1"; "metrics identical" ]
  in
  let arm_rows =
    List.map
      (fun (k, wall, rs) ->
        let identical = same_metrics rs base_results in
        Table.add_row grid_tbl
          [
            Table.cell_int k;
            Printf.sprintf "%.3f" wall;
            Printf.sprintf "%.2fx" (wall1 /. wall);
            (if identical then "yes" else "NO");
          ];
        (k, wall, identical))
      measured
  in
  Table.add_note grid_tbl
    (Printf.sprintf
       "Runner.run_grid over a %d-domain pool (--jobs, default \
        recommended_domain_count=%d); wall_s is the min of %d round(s), \
        major heap compacted before each. Per-run metrics are \
        byte-identical across every arm by the pool's determinism \
        contract, so only wall-clock varies; speedup is capped by the \
        host's effective cores - see docs/PERFORMANCE.md for this \
        container's calibration."
       !jobs
       (Pool.default_jobs ()) rounds);
  emit_named "perf-grid" grid_tbl;
  List.iter
    (fun (_, _, identical) ->
      if not identical then begin
        prerr_endline
          "FATAL: parallel grid metrics differ from the sequential arm";
        exit 1
      end)
    arm_rows;
  let _, best_wall, _ =
    List.fold_left
      (fun ((_, bw, _) as best) ((_, w, _) as arm) ->
        if w < bw then arm else best)
      (List.hd arm_rows) (List.tl arm_rows)
  in
  let scenario_json (key, algo, adv, p, t, d, (m : Metrics.t), wall, seed_s) =
    Json.Obj
      ([
         ("scenario", Json.Str key);
         ("algo", Json.Str algo);
         ("adversary", Json.Str adv);
         ("p", Json.Int p);
         ("t", Json.Int t);
         ("d", Json.Int d);
         ("work", Json.Int m.Metrics.work);
         ("messages", Json.Int m.Metrics.messages);
         ("sigma", Json.Int m.Metrics.sigma);
         ("wall_s", Json.Float wall);
       ]
      @
      match seed_s with
      | Some s ->
        [
          ("seed_wall_s", Json.Float s);
          ("speedup_vs_seed", Json.Float (s /. wall));
        ]
      | None -> [])
  in
  let arm_json (k, wall, identical) =
    Json.Obj
      [
        ("jobs", Json.Int k);
        ("wall_s", Json.Float wall);
        ("speedup_vs_jobs1", Json.Float (wall1 /. wall));
        ("metrics_identical", Json.Bool identical);
      ]
  in
  let doc =
    Json.Obj
      [
        ("bench", Json.Int 2);
        ( "description",
          Json.Str
            "wall-clock grid over broadcast-heavy (algo x adversary x p,t,d) \
             scenarios, plus the end-to-end parallel-grid speedup of the \
             domain-pool runner; second point of the perf trajectory" );
        ("quick", Json.Bool quick);
        ( "baseline",
          Json.Obj
            [
              ("commit", Json.Str "b5fef56");
              ( "engine",
                Json.Str
                  "binary-heap delivery, byte-packed bitsets, O(p) tick scans"
              );
              ("measured", Json.Str "2026-08-06");
              ( "wall_s",
                Json.Obj
                  (List.map
                     (fun (key, s) -> (key, Json.Float s))
                     perf_seed_baseline) );
            ] );
        ("results", Json.List (List.map scenario_json results));
        ( "parallel_grid",
          Json.Obj
            [
              ("runs", Json.Int (List.length specs));
              ("scenarios", Json.Int (List.length (grid_scenarios ~quick)));
              ("seeds", Json.Int (List.length (grid_seeds ~quick)));
              ("recommended_domain_count", Json.Int (Pool.default_jobs ()));
              ("minor_heap_words", Json.Int (Gc.get ()).Gc.minor_heap_size);
              ("rounds", Json.Int rounds);
              ("arms", Json.List (List.map arm_json arm_rows));
              ("best_speedup", Json.Float (wall1 /. best_wall));
              ( "note",
                Json.Str
                  "per-run metrics byte-identical across all arms (asserted \
                   at generation time); wall-clock speedup is bounded by the \
                   host's effective core count - this container exposes 2 \
                   vCPUs with a measured two-process ceiling of ~1.5x, see \
                   docs/PERFORMANCE.md; 4-core CI-class hardware is the >=2x \
                   target" );
            ] );
      ]
  in
  let oc = open_out out in
  Json.pp_to_channel oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks.                                           *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let bitset_union =
    let a = Bitset.create 4096 and b = Bitset.create 4096 in
    for i = 0 to 4095 do
      if i mod 3 = 0 then Bitset.set a i;
      if i mod 5 = 0 then Bitset.set b i
    done;
    Test.make ~name:"bitset-union-4096"
      (Staged.stage (fun () ->
           let dst = Bitset.copy a in
           Bitset.union_into ~dst b))
  in
  let bitset_union_absorbed =
    (* The engine's steady state: knowledge is monotone, so most incoming
       sets are already contained in the destination and union_into is a
       read-only sweep. *)
    let dst = Bitset.create 4096 and src = Bitset.create 4096 in
    for i = 0 to 4095 do
      if i mod 2 = 0 then Bitset.set dst i;
      if i mod 4 = 0 then Bitset.set src i
    done;
    Bitset.union_into ~dst src;
    Test.make ~name:"bitset-union-absorbed-4096"
      (Staged.stage (fun () -> Bitset.union_into ~dst src))
  in
  let bitset_first_missing =
    let b = Bitset.create 4096 in
    for i = 0 to 4000 do
      Bitset.set b i
    done;
    Test.make ~name:"bitset-first-missing-4096"
      (Staged.stage (fun () -> ignore (Bitset.first_missing b)))
  in
  let bitset_iter_set =
    let b = Bitset.create 4096 in
    for i = 0 to 4095 do
      if i mod 7 = 0 then Bitset.set b i
    done;
    Test.make ~name:"bitset-iter-set-4096"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Bitset.iter_set b (fun i -> acc := !acc + i);
           ignore !acc))
  in
  let dlrm =
    let rng = Rng.create 1 in
    let pi = Perm.random rng 1024 in
    Test.make ~name:"d-lrm-1024"
      (Staged.stage (fun () -> ignore (Lrm.d_lrm ~d:8 pi)))
  in
  let cont =
    let rng = Rng.create 2 in
    let psi = Gen.random_list ~rng ~n:64 ~count:64 in
    let rho = Perm.random rng 64 in
    Test.make ~name:"contention-wrt-64x64"
      (Staged.stage (fun () -> ignore (Contention.contention_wrt psi ~rho)))
  in
  let tree_marks =
    Test.make ~name:"progress-tree-marks-q4-1e3"
      (Staged.stage (fun () ->
           ignore
             (Progress_tree.initial_marks
                (Progress_tree.shape ~q:4 ~jobs:1000))))
  in
  let engine_run =
    Test.make ~name:"engine-paran1-p16-t64"
      (Staged.stage (fun () ->
           let cfg = Config.make ~seed:7 ~p:16 ~t:64 () in
           ignore
             (Engine.run_packed (Algo_pa.make_ran1 ()) cfg ~d:4
                ~adversary:Adversary.fair ())))
  in
  let engine_run_probed =
    (* The same cell as engine-paran1-p16-t64 with live probes attached:
       the pair brackets the instrumentation overhead at micro scale
       (the `obs` bench id measures the paper-scale cell). *)
    Test.make ~name:"engine-paran1-p16-t64-probed"
      (Staged.stage (fun () ->
           let cfg = Config.make ~seed:7 ~p:16 ~t:64 () in
           let probe = Probe.create () in
           ignore
             (Engine.run_packed (Algo_pa.make_ran1 ()) cfg ~d:4
                ~adversary:Adversary.fair ~probe ())))
  in
  let engine_da =
    Test.make ~name:"engine-da-q4-p16-t64"
      (Staged.stage (fun () ->
           let cfg = Config.make ~seed:7 ~p:16 ~t:64 () in
           ignore
             (Engine.run_packed (Algo_da.make ~q:4 ()) cfg ~d:4
                ~adversary:Adversary.fair ())))
  in
  let rng_bench =
    let rng = Rng.create 3 in
    Test.make ~name:"rng-int"
      (Staged.stage (fun () -> ignore (Rng.int rng 1000)))
  in
  let pool_grid =
    (* Grid dispatch through the reusable pool: measures the pool's
       per-batch overhead (queueing, condition signalling, slot
       collection) on top of the 8 simulation runs themselves. *)
    let pool = shared_pool () in
    let specs =
      Runner.grid
        ~seeds:[ 1; 2; 3; 4 ]
        ~algos:[ "paran1"; "da-q4" ]
        ~advs:[ "fair" ]
        ~points:[ (16, 64, 4) ]
        ()
    in
    Test.make
      ~name:(Printf.sprintf "pool-grid-8runs-j%d" (Pool.jobs pool))
      (Staged.stage (fun () -> ignore (Runner.run_grid ~pool specs)))
  in
  let tests =
    Test.make_grouped ~name:"doall"
      [
        bitset_union;
        bitset_union_absorbed;
        bitset_first_missing;
        bitset_iter_set;
        dlrm;
        cont;
        tree_marks;
        engine_run;
        engine_run_probed;
        engine_da;
        rng_bench;
        pool_grid;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  print_endline "== microbenchmarks (ns per run, OLS on monotonic clock) ==";
  Hashtbl.iter
    (fun _label per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-36s %14.1f ns\n" name est
          | Some ests ->
            Printf.printf "  %-36s %s\n" name
              (String.concat ", " (List.map (Printf.sprintf "%.1f") ests))
          | None -> Printf.printf "  %-36s (no estimate)\n" name)
        per_test)
    results

(* ------------------------------------------------------------------ *)
(* Probe overhead: the "zero-cost when disabled, cheap when enabled"
   claim of lib/obs, measured on the broadcast-heavy paper-scale cell
   (the same paran1/max-delay scenario the perf table tracks). The
   measured ratio is recorded in docs/OBSERVABILITY.md; target < 5%. *)

let obs_overhead ~quick ~profile () =
  let p, t, d = if quick then (64, 512, 8) else (256, 4096, 16) in
  let run_cell ?probe ?spans () =
    let adversary =
      (Runner.find_adv "max-delay").Runner.instantiate ~p ~t ~d
    in
    let cfg = Config.make ~seed:42 ~p ~t () in
    Engine.run_packed (Algo_pa.make_ran1 ()) cfg ~d ~adversary ?probe ?spans ()
  in
  let timed ?probe ?spans () =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let m = run_cell ?probe ?spans () in
    (Unix.gettimeofday () -. t0, m)
  in
  (* This cell runs for seconds, so best-of-N interleaved wall clock
     beats a sampling harness here: the min discards co-tenant noise,
     and alternating the arms exposes both to the same machine state.
     (Bechamel covers the micro scale: engine-paran1-p16-t64[-probed].) *)
  let rounds = if quick then 7 else 4 in
  if profile then begin
    (* --profile: the engine self-profiler's own cost, same protocol.
       Unlike the report-only probe arm this one is a gate: CI fails if
       profiling costs >= 5% or perturbs the metrics at all. *)
    let off_best = ref infinity and on_best = ref infinity in
    let off_m = ref None and on_m = ref None in
    let last_sp = ref None in
    ignore (run_cell ()) (* warm up code paths and the major heap *);
    for _ = 1 to rounds do
      let w, m = timed () in
      if w < !off_best then off_best := w;
      off_m := Some m;
      let sp = Span.create () in
      let w, m = timed ~spans:sp () in
      if w < !on_best then on_best := w;
      on_m := Some m;
      last_sp := Some (Span.snapshot sp)
    done;
    let overhead_pct = ((!on_best /. !off_best) -. 1.) *. 100. in
    (* The <5% contract is stated on the paper-scale cell, whose steps
       run ~25µs each; the --quick cell's ~1µs steps make the clock
       reads themselves the dominant cost, so quick mode only smokes
       against a catastrophic-regression ceiling. *)
    let gate_pct = if quick then 50.0 else 5.0 in
    Printf.printf "== span overhead: paran1/max-delay p=%d t=%d d=%d ==\n" p t
      d;
    Printf.printf "  spans-off  %10.3f ms/run (best of %d)\n"
      (!off_best *. 1e3) rounds;
    Printf.printf "  spans-on   %10.3f ms/run (best of %d)\n"
      (!on_best *. 1e3) rounds;
    Printf.printf "  overhead   %+.2f%% (gate < %.0f%%, docs/OBSERVABILITY.md)\n"
      overhead_pct gate_pct;
    (match !last_sp with
     | None -> ()
     | Some sp ->
       Printf.printf "  phase breakdown (last profiled run):\n";
       List.iter
         (fun (name, (total, count)) ->
           Printf.printf "    %-12s %10.3f ms  x%d\n" name (total *. 1e3)
             count)
         sp);
    if !off_m <> !on_m then begin
      prerr_endline "FATAL: metrics differ between spans-on and spans-off";
      exit 1
    end;
    print_string "  metrics identical across arms: yes\n";
    if overhead_pct >= gate_pct then begin
      Printf.eprintf "FATAL: span overhead %+.2f%% exceeds the %.0f%% gate\n"
        overhead_pct gate_pct;
      exit 1
    end
  end
  else begin
    let off_best = ref infinity and on_best = ref infinity in
    let off_m = ref None and on_m = ref None in
    ignore (run_cell ()) (* warm up code paths and the major heap *);
    for _ = 1 to rounds do
      let w, m = timed () in
      if w < !off_best then off_best := w;
      off_m := Some m;
      let w, m = timed ~probe:(Probe.create ()) () in
      if w < !on_best then on_best := w;
      on_m := Some m
    done;
    if !off_m <> !on_m then begin
      prerr_endline "FATAL: metrics differ between probe-on and probe-off";
      exit 1
    end;
    Printf.printf "== probe overhead: paran1/max-delay p=%d t=%d d=%d ==\n" p t
      d;
    Printf.printf "  probe-off  %10.3f ms/run (best of %d)\n"
      (!off_best *. 1e3) rounds;
    Printf.printf "  probe-on   %10.3f ms/run (best of %d)\n"
      (!on_best *. 1e3) rounds;
    Printf.printf "  overhead   %+.2f%% (target < 5%%, docs/OBSERVABILITY.md)\n"
      (((!on_best /. !off_best) -. 1.) *. 100.);
    print_string "  metrics identical across arms: yes\n"
  end

(* ------------------------------------------------------------------ *)
(* xl: the scale-wall arm behind BENCH_3.json (docs/PERFORMANCE.md,
   "xl methodology").

   Two cell families sit beyond what the per-destination delivery
   pipeline could reach: p=16384 fleets, where every broadcast used to
   cost p-1 calendar-ring insertions and p-1 payload copies, and t=1e6
   task sets, where every knowledge snapshot used to copy ~16k words.
   The shared-broadcast stream plus copy-on-write knowledge snapshots
   collapse both. A third arm re-runs the BENCH_1 headline cells and
   requires the broadcast-heavy PA ones to have gained >= 1.5x at
   unchanged golden-pinned metrics. *)

let vm_hwm_kb () =
  (* Peak resident set of this process (kB), from /proc/self/status.
     A high-water mark: cumulative over the process, so per-cell values
     only bound the cell run smallest-first (see docs/PERFORMANCE.md). *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          (* "VmHWM:\t  123456 kB" — take the first numeric field *)
          String.sub line 6 (String.length line - 6)
          |> String.split_on_char ' '
          |> List.concat_map (String.split_on_char '\t')
          |> List.find_map int_of_string_opt
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Ordered smallest-memory-first so the cumulative VmHWM samples stay
   attributable (each cell's reading is an upper bound set by the
   largest cell so far). *)
let xl_scenarios ~quick =
  if quick then
    [
      ("da-q4", "max-delay", 256, 131072, 8);
      ("paran1", "max-delay", 2048, 1024, 8);
    ]
  else
    [
      ("paran1", "max-delay", 256, 1_000_000, 16);
      ("da-q4", "max-delay", 256, 1_000_000, 16);
      ("da-q4", "max-delay", 16384, 16384, 8);
      ("paran1", "max-delay", 16384, 2048, 8);
    ]

(* BENCH_1's headline cells: recorded wall-clock (same reference
   container, 2026-08-06) and golden-pinned metrics. The >= 1.5x gate
   applies to the broadcast-heavy PA cells; da-q4 finishes in ~0.1s
   where wall-clock is mostly noise, so it is reported unGated. *)
let xl_speedup_cells =
  [
    ("paran1", 3.592, (20224, 5091840, 78), true);
    ("padet", 4.624, (20224, 5091840, 78), true);
    ("da-q4", 0.094, (8960, 130560, 34), false);
  ]

(* Per-cell BENCH_3-engine reference walls (stream + delta wire, before
   epoch-digest delivery; same reference container, 2026-08-08) and
   golden-pinned metrics, keyed like xl_scenarios. Full cells from
   BENCH_3.json; quick cells measured on the BENCH_3 engine at the same
   commit. [gate] is the required wall-clock ratio: the regression gate
   on --quick cells fails CI when a cell runs > 1.5x SLOWER than the
   reference (ratio 1/1.5), and the paran1/t=1e6 headline cell must run
   >= 3x FASTER (the PR's acceptance criterion); None = report-only. *)
let xl_bench3_reference =
  [
    ("paran1/max-delay/p256/t1000000/d16", 455.555, (3007744, 766971405, 11748), Some 3.0);
    ("da-q4/max-delay/p256/t1000000/d16", 20.265, (1005056, 130560, 3925), None);
    ("da-q4/max-delay/p16384/t16384/d8", 106.715, (245760, 1878933504, 14), None);
    ("paran1/max-delay/p16384/t2048/d8", 60.296, (147456, 2415214626, 8), None);
    ("da-q4/max-delay/p256/t131072/d8", 0.840, (133888, 130560, 522), Some (1.0 /. 1.5));
    ("paran1/max-delay/p2048/t1024/d8", 0.845, (22528, 46102534, 10), Some (1.0 /. 1.5));
  ]

(* The engine phase totals as a compact share string for table cells:
   "deliver 34% algo_step 28% …", zero-count phases omitted. *)
let phases_cell = function
  | None -> "-"
  | Some sp ->
    let total = Span.total sp in
    if total <= 0.0 then "-"
    else
      String.concat " "
        (List.filter_map
           (fun (name, (t, count)) ->
             if count = 0 then None
             else Some (Printf.sprintf "%s %.0f%%" name (100. *. t /. total)))
           sp)

let xl ~quick ~out () =
  let quick_ceiling_s = 60.0 in
  let fail = ref false in
  let fatal_findings label findings =
    List.iter
      (fun f ->
        Format.eprintf "FATAL: %s %a@." label Doall_obs.Diff.pp_finding f;
        fail := true)
      findings;
    findings = []
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "xl: scale-wall cells%s (seed 42)"
           (if quick then " [--quick]" else ""))
      ~columns:
        [ "scenario"; "W"; "M"; "sigma"; "wall_s"; "rss_peak_kb"; "phases" ]
  in
  let cell_results =
    List.map
      (fun (algo, adv, p, t, d) ->
        let key = Printf.sprintf "%s/%s/p%d/t%d/d%d" algo adv p t d in
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let r =
          Runner.run_spec ~profile:true
            (Runner.spec ~seed:42 ~algo ~adv ~p ~t ~d ())
        in
        let m = r.Runner.metrics in
        let wall = Unix.gettimeofday () -. t0 in
        let rss = vm_hwm_kb () in
        if quick && wall > quick_ceiling_s then begin
          Printf.eprintf "FATAL: xl --quick cell %s took %.1fs (ceiling %.0fs)\n"
            key wall quick_ceiling_s;
          fail := true
        end;
        if not m.Metrics.completed then begin
          Printf.eprintf "FATAL: xl cell %s hit the time cap at %d\n" key
            m.Metrics.sigma;
          fail := true
        end;
        Table.add_row tbl
          [
            (if m.Metrics.completed then key else key ^ " (capped)");
            Table.cell_int m.Metrics.work;
            Table.cell_int m.Metrics.messages;
            Table.cell_int m.Metrics.sigma;
            Printf.sprintf "%.3f" wall;
            (match rss with Some kb -> Table.cell_int kb | None -> "-");
            phases_cell r.Runner.spans;
          ];
        (key, algo, adv, p, t, d, m, wall, rss, r.Runner.spans))
      (xl_scenarios ~quick)
  in
  Table.add_note tbl
    "rss_peak_kb: /proc/self/status VmHWM after the cell - a process-wide \
     high-water mark, so readings are cumulative; cells run \
     smallest-memory-first to keep them attributable";
  emit_named "xl-cells" tbl;
  (* -- epoch-digest arm: every cell against its BENCH_3-engine wall.
        Runs in both modes; on --quick this is the CI perf-regression
        gate (fail when a cell runs > 1.5x slower than the committed
        reference), and on full runs the paran1/t=1e6 headline cell
        must clear its 3x floor. -- *)
  let b3_tbl =
    Table.create ~title:"xl: vs BENCH_3 engine (epoch-digest delivery)"
      ~columns:[ "scenario"; "wall_s"; "bench3_s"; "speedup"; "metrics"; "gate" ]
  in
  let bench3_rows =
    List.filter_map
      (fun (key, _, _, _, _, _, (m : Metrics.t), wall, _, _) ->
        match
          List.find_opt (fun (k, _, _, _) -> k = key) xl_bench3_reference
        with
        | None -> None
        | Some (_, bench3_s, (w_pin, m_pin, s_pin), gate) ->
          let pinned =
            fatal_findings "BENCH_3 pin"
              (Doall_obs.Diff.gate_metric_pins ~key
                 ~pins:
                   [ ("work", w_pin); ("messages", m_pin); ("sigma", s_pin) ]
                 ~actual:
                   [
                     ("work", m.Metrics.work);
                     ("messages", m.Metrics.messages);
                     ("sigma", m.Metrics.sigma);
                   ])
          in
          let speedup = bench3_s /. wall in
          (match gate with
           | Some g ->
             ignore
               (fatal_findings "BENCH_3 gate"
                  (Doall_obs.Diff.gate_wall_ratio ~key ~reference_s:bench3_s
                     ~wall_s:wall ~min_ratio:g))
           | None -> ());
          Table.add_row b3_tbl
            [
              key;
              Printf.sprintf "%.3f" wall;
              Printf.sprintf "%.3f" bench3_s;
              Printf.sprintf "%.2fx" speedup;
              (if pinned then "pinned" else "DIVERGED");
              (match gate with
               | Some g -> Printf.sprintf ">=%.2fx" g
               | None -> "report-only");
            ];
          Some (key, wall, bench3_s, speedup, pinned, gate))
      cell_results
  in
  Table.add_note b3_tbl
    "bench3_s: the same cell on the stream+delta engine before epoch-digest \
     delivery (BENCH_3.json for full cells; quick cells measured at the \
     same commit). The quick cells' 0.67x floor is the CI \
     perf-regression gate; the paran1/t=1e6 3x floor is the epoch-digest \
     acceptance criterion.";
  emit_named "xl-bench3" b3_tbl;
  (* -- speedup arm vs BENCH_1 -- *)
  let speedups =
    if quick then []
    else begin
      let sp_tbl =
        Table.create ~title:"xl: BENCH_1 headline cells, re-measured"
          ~columns:
            [ "scenario"; "wall_s"; "bench1_s"; "speedup"; "metrics"; "gate" ]
      in
      let rows =
        List.map
          (fun (algo, bench1_s, (w_pin, m_pin, s_pin), gated) ->
            let p, t, d = (256, 4096, 16) in
            let key = Printf.sprintf "%s/max-delay/p%d/t%d/d%d" algo p t d in
            let best = ref infinity and last = ref None in
            for _ = 1 to 2 do
              Gc.compact ();
              let t0 = Unix.gettimeofday () in
              let m =
                (Runner.run ~seed:42 ~algo ~adv:"max-delay" ~p ~t ~d ())
                  .Runner.metrics
              in
              let wall = Unix.gettimeofday () -. t0 in
              if wall < !best then best := wall;
              last := Some m
            done;
            let m = Option.get !last in
            let pinned =
              fatal_findings "BENCH_1 pin"
                (Doall_obs.Diff.gate_metric_pins ~key
                   ~pins:
                     [ ("work", w_pin); ("messages", m_pin); ("sigma", s_pin) ]
                   ~actual:
                     [
                       ("work", m.Metrics.work);
                       ("messages", m.Metrics.messages);
                       ("sigma", m.Metrics.sigma);
                     ])
            in
            let speedup = bench1_s /. !best in
            if gated then
              ignore
                (fatal_findings "BENCH_1 gate"
                   (Doall_obs.Diff.gate_wall_ratio ~key ~reference_s:bench1_s
                      ~wall_s:!best ~min_ratio:1.5));
            Table.add_row sp_tbl
              [
                key;
                Printf.sprintf "%.3f" !best;
                Printf.sprintf "%.3f" bench1_s;
                Printf.sprintf "%.2fx" speedup;
                (if pinned then "pinned" else "DIVERGED");
                (if gated then ">=1.5x" else "report-only");
              ];
            (key, !best, bench1_s, speedup, pinned, gated))
          xl_speedup_cells
      in
      Table.add_note sp_tbl
        "best of 2 rounds, major heap compacted before each; bench1_s from \
         BENCH_1.json (same reference container); metrics must equal the \
         golden-pinned BENCH_1 values";
      emit_named "xl-speedup" sp_tbl;
      rows
    end
  in
  let cell_json (key, algo, adv, p, t, d, (m : Metrics.t), wall, rss, spans) =
    Json.Obj
      ([
         ("scenario", Json.Str key);
         ("algo", Json.Str algo);
         ("adversary", Json.Str adv);
         ("p", Json.Int p);
         ("t", Json.Int t);
         ("d", Json.Int d);
         ("work", Json.Int m.Metrics.work);
         ("messages", Json.Int m.Metrics.messages);
         ("sigma", Json.Int m.Metrics.sigma);
         ("wall_s", Json.Float wall);
       ]
      @ (match rss with
         | Some kb -> [ ("rss_peak_kb", Json.Int kb) ]
         | None -> [])
      @
      match spans with
      | Some sp -> Doall_obs.Export.spans_fields sp
      | None -> [])
  in
  let speedup_json (key, wall, bench1_s, speedup, pinned, gated) =
    Json.Obj
      [
        ("scenario", Json.Str key);
        ("wall_s", Json.Float wall);
        ("bench1_wall_s", Json.Float bench1_s);
        ("speedup_vs_bench1", Json.Float speedup);
        ("metrics_pinned", Json.Bool pinned);
        ("gated_1_5x", Json.Bool gated);
      ]
  in
  let bench3_json (key, wall, bench3_s, speedup, pinned, gate) =
    Json.Obj
      ([
         ("scenario", Json.Str key);
         ("wall_s", Json.Float wall);
         ("bench3_wall_s", Json.Float bench3_s);
         ("speedup_vs_bench3", Json.Float speedup);
         ("metrics_pinned", Json.Bool pinned);
       ]
      @
      match gate with
      | Some g -> [ ("gate_min_ratio", Json.Float g) ]
      | None -> [])
  in
  let doc =
    Json.Obj
      [
        ("bench", Json.Int 4);
        ( "description",
          Json.Str
            "scale-wall cells re-measured under epoch-digest delivery (one \
             shared union per tick instead of p-1 per-receiver applies), \
             gated against the BENCH_3 engine per cell, plus the BENCH_1 \
             headline arm; fourth point of the perf trajectory" );
        ("quick", Json.Bool quick);
        ( "baseline",
          Json.Obj
            [
              ("bench", Json.Str "BENCH_3.json");
              ( "engine",
                Json.Str
                  "shared-broadcast stream + delta payloads, per-receiver \
                   payload applies (before epoch-digest delivery)" );
              ("measured", Json.Str "2026-08-08");
            ] );
        ("cells", Json.List (List.map cell_json cell_results));
        ("bench3_speedup", Json.List (List.map bench3_json bench3_rows));
        ("bench1_speedup", Json.List (List.map speedup_json speedups));
      ]
  in
  let oc = open_out out in
  Json.pp_to_channel oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if !fail then exit 1

(* ------------------------------------------------------------------ *)

let list_experiments () =
  List.iter
    (fun e -> Printf.printf "%-5s %s\n" e.Exp.id (Exp.one_liner e))
    (Exp.all ());
  print_string "micro  Bechamel microbenchmarks (bitsets, engine cells)\n";
  print_string "perf   wall-clock grid + parallel-grid speedup, writes BENCH_2.json\n";
  print_string "obs    probe overhead on the paper-scale cell (target < 5%); --profile gates the span self-profiler instead\n";
  print_string "xl     scale-wall cells (p=16384, t=1e6) + BENCH_3/BENCH_1 speedup gates, writes BENCH_4.json\n";
  print_string "(perf and xl refuse to overwrite an existing default file; pass --out PATH)\n";
  print_string "The benchmark is benchsuite/ (see BENCHMARK.json): dune exec benchsuite/suite.exe -- --workload NAME\n"

let unknown id =
  Printf.eprintf "unknown experiment %S; known experiments:\n" id;
  List.iter
    (fun e -> Printf.eprintf "  %-5s %s\n" e.Exp.id (Exp.one_liner e))
    (Exp.all ());
  Printf.eprintf "  micro, perf, obs, xl (performance targets)\n";
  exit 2

let () =
  (* Stop-the-world minor collections serialize the domain pool: with the
     default 256k-word minor heap the parallel grid is *slower* than
     sequential (every broadcast-heavy run allocates fresh bitsets). 2M
     words per domain keeps the rendezvous rate low enough to scale; set
     before any timing so the jobs=1 and jobs=N arms run under the same
     GC (docs/PERFORMANCE.md has the calibration). *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  Doall_quorum.Register.install ();
  Catalog.install ();
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false in
  let profile = ref false in
  let out_override = ref None in
  let list_only = ref false in
  let rec strip_flags acc = function
    | "--csv" :: dir :: rest ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      csv_dir := Some dir;
      strip_flags acc rest
    | "--quick" :: rest ->
      quick := true;
      strip_flags acc rest
    | "--profile" :: rest ->
      profile := true;
      strip_flags acc rest
    | "--list" :: rest ->
      list_only := true;
      strip_flags acc rest
    | "--out" :: path :: rest ->
      out_override := Some path;
      strip_flags acc rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | _ ->
         Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
         exit 2);
      strip_flags acc rest
    | x :: rest -> strip_flags (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_flags [] args in
  if !list_only then list_experiments ()
  else begin
    let requested =
      match args with
      | [] | [ "all" ] -> Exp.ids ()
      | args -> args
    in
    List.iter
      (fun id ->
        (* the default files are committed trajectory records: refuse to
           overwrite one unless the caller names the target explicitly *)
        let out default =
          match !out_override with
          | Some path -> path
          | None when Sys.file_exists default ->
            Printf.eprintf
              "bench %s: %s already exists (the BENCH_N files are \
               committed records); pass --out PATH to write elsewhere, or \
               --out %s to replace it\n"
              id default default;
            exit 2
          | None -> default
        in
        if id = "micro" then micro ()
        else if id = "perf" then perf ~quick:!quick ~out:(out "BENCH_2.json") ()
        else if id = "obs" then
          obs_overhead ~quick:!quick ~profile:!profile ()
        else if id = "xl" then xl ~quick:!quick ~out:(out "BENCH_4.json") ()
        else
          match Exp.find id with
          | Some e ->
            Exp.run ~pool:(shared_pool ()) ?csv_dir:!csv_dir ~progress:true e;
            print_newline ()
          | None -> unknown id)
      requested
  end
