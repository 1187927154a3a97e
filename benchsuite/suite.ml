(* The benchmark's entry point: one workload per process.

     dune exec benchsuite/suite.exe -- --workload NAME [--seed N]
       [--seconds N] [--trace 0|1]

   Set-up, then one warm-up repetition (audited by the invariant oracle
   and checked, not timed), then timed repetitions until [--seconds]
   have passed. Every metric is printed as "name value unit"; the last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics. [--trace 0] reports the end-to-end
   metrics of benchsuite/catalog.ml, [--trace 1] the per-layer ones.
   Times are in reference seconds (Measure.reference_s).

   [--print-pins] prints benchsuite/pins.ml for seeds 1 and 2. *)

open Doall_core
open Benchsuite
module Json = Doall_obs.Export.Json

(* timed repetitions per run at the least, whatever --seconds says *)
let min_reps = 3

(* Set-up samples per untraced run: at least [min_setups]; more, up to
   [max_setups], while they fit in [setup_budget] seconds, because a
   set-up of microseconds is mostly noise in any one sample. *)
let min_setups = 3
let max_setups = 25
let setup_budget = 1.0

(* Set-up seconds and the host's speed next to each sample. The memos
   set-up fills cannot be emptied, so all samples but the last run in
   forked children. *)
let sample_setups algos =
  let sample setup =
    let reference = Measure.time_reference ~jobs:1 in
    (reference, setup ())
  in
  let deadline = Measure.now () +. setup_budget in
  let rec forked n acc =
    if n >= max_setups - 1 || (n >= min_setups - 1 && Measure.now () >= deadline)
    then acc
    else forked (n + 1) (sample (fun () -> Measure.forked_setup algos) :: acc)
  in
  let forked = forked 0 [] in
  let own =
    sample (fun () ->
        let install, make = Measure.setup algos in
        install +. make)
  in
  List.split (own :: forked)

let specs cells = List.map (fun c -> c.Workloads.spec) cells

(* The batches of one repetition: each cell alone on a single domain,
   or the whole grid at once on the workload's pool. *)
let batches (w : Workloads.t) cells =
  if w.jobs = 1 then List.map (fun c -> [ c ]) cells else [ cells ]

(* One untraced repetition through Runner.run_grid. Returns the batch
   samples and each cell's engine wall time. *)
let untraced ~check_all g (w : Workloads.t) cells =
  List.map
    (fun b ->
      let check = check_all || List.exists (fun c -> c.Workloads.check) b in
      let out, s =
        Measure.batch ~jobs:w.jobs
          (fun pool b -> Runner.run_grid ~pool ~check (specs b))
          b
      in
      match out with
      | Ok rs ->
        List.iter2
          (fun c r -> Measure.check g c.Workloads.spec (Ok r.Runner.metrics))
          b rs;
        (s, List.map (fun r -> r.Runner.wall_s) rs)
      | Error e ->
        List.iter (fun c -> Measure.check g c.Workloads.spec (Error e)) b;
        (s, []))
    (batches w cells)

(* M counted from outside the engine must be the engine's M. *)
let messages_outside spec r (m : Doall_sim.Metrics.t) =
  let expected = Layers.expected_messages spec r in
  if m.messages = expected then None
  else Some (Printf.sprintf "M = %d, counted from outside %d" m.messages expected)

(* One traced repetition: every cell through Layers.run_cell. Returns
   the batch samples and the repetition's layer values. *)
let traced g (w : Workloads.t) cells =
  let runs =
    List.map
      (fun b ->
        (* failures are caught per cell, so only the pool can fail here *)
        let out, s =
          Measure.batch ~jobs:w.jobs
            (fun pool b ->
              Doall_sim.Pool.map pool
                (fun c -> (c, try Ok (Layers.run_cell c) with e -> Error e))
                b)
            b
        in
        (s, Result.get_ok out))
      (batches w cells)
  in
  let layer (c, outcome) =
    let spec = c.Workloads.spec in
    match outcome with
    | Error e ->
      Measure.check g spec (Error e);
      None
    | Ok (m, r, layer) ->
      Measure.check ~also:(messages_outside spec r) g spec (Ok m);
      Some layer
  in
  ( List.map fst runs,
    Layers.repetition (List.filter_map layer (List.concat_map snd runs)) )

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let rep_wall samples = sum (fun s -> s.Measure.wall) samples

(* Repeats [f] until [seconds] have passed and at least [min] times,
   timing the host's speed on [jobs] domains before each. Returns the
   reference times and the results. *)
let repeat ~jobs ~seconds ~min f =
  let deadline = Measure.now () +. seconds in
  let rec go acc n =
    if n >= min && Measure.now () >= deadline then List.split (List.rev acc)
    else
      let reference = Measure.time_reference ~jobs in
      go ((reference, f ()) :: acc) (n + 1)
  in
  go [] 0

let run_untraced g (w : Workloads.t) cells ~seconds =
  let setup_refs, setups = sample_setups (Workloads.algos w) in
  ignore (untraced ~check_all:true g w cells);
  let refs, reps =
    repeat ~jobs:w.jobs ~seconds ~min:min_reps (fun () ->
        List.map fst (untraced ~check_all:false g w cells))
  in
  let factor = Measure.speed_factor refs in
  let med f = Stats.median (List.map f reps) in
  Printf.printf "# reference seconds per host second: %.4f, in set-up %.4f\n"
    factor (Measure.speed_factor setup_refs);
  [
    ("wall_s", factor *. med rep_wall);
    ("cpu_s", factor *. med (sum (fun s -> s.Measure.cpu_s)));
    ("setup_s", Measure.speed_factor setup_refs *. Stats.median setups);
    ("alloc_mwords", med (sum Measure.alloc_words) /. 1e6);
    ("peak_rss_mb", Measure.peak_rss_mb ());
  ]

(* GC layer values of one untraced repetition. *)
let gc_layer samples =
  let d f = sum (fun s -> let g0, g1 = s.Measure.gc in f g1 -. f g0) samples in
  let i f = d (fun g -> float_of_int (f g)) in
  [
    ("gc.minor_collections", i (fun g -> g.Gc.minor_collections));
    ("gc.major_collections", i (fun g -> g.Gc.major_collections));
    ("gc.promoted_words", d (fun g -> g.Gc.promoted_words));
    ("gc.major_words", d (fun g -> g.Gc.major_words));
  ]

(* Pool layer values of one untraced repetition. *)
let pool_layer (w : Workloads.t) samples cell_walls =
  let busy = sum Fun.id cell_walls in
  let capacity = float_of_int w.jobs *. rep_wall samples in
  [
    ("pool.busy_s", busy);
    ("pool.idle_s", capacity -. busy);
    ("pool.utilization", busy /. capacity);
  ]

(* Per-key medians over repetitions that all report the same keys. *)
let medians reps =
  List.map
    (fun (k, _) -> (k, Stats.median (List.map (List.assoc k) reps)))
    (List.hd reps)

(* Untraced and traced repetitions in turn: the traced ones give the
   engine, algo, adversary, transport and oracle layers, the untraced
   ones the gc and pool layers and the baseline of trace.overhead. *)
let run_traced g (w : Workloads.t) cells ~seconds =
  let setup_ref = Measure.time_reference ~jobs:1 in
  let install, make = Measure.setup (Workloads.algos w) in
  ignore (untraced ~check_all:true g w cells);
  let refs, pairs =
    repeat ~jobs:w.jobs ~seconds ~min:2 (fun () ->
        let u = untraced ~check_all:false g w cells in
        let samples = List.map fst u and walls = List.concat_map snd u in
        let t_samples, layer = traced g w cells in
        let overhead = (rep_wall t_samples /. rep_wall samples) -. 1.0 in
        ( layer @ gc_layer samples @ pool_layer w samples walls
          @ [ ("trace.overhead", overhead) ],
          walls ))
  in
  let walls = List.concat_map snd pairs in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let setup_factor = Measure.speed_factor [ setup_ref ] in
  let factor = Measure.speed_factor refs in
  Printf.printf "# reference seconds per host second: %.4f, in set-up %.4f\n"
    factor setup_factor;
  let seconds (k, v) = (k, if Catalog.in_seconds k then factor *. v else v) in
  List.map seconds
    (medians (List.map fst pairs) @ [ ("pool.cell_median_s", Stats.median walls) ])
  @ [
      ("setup.install_s", setup_factor *. install);
      ("setup.make_s", setup_factor *. make);
      ( "gc.top_heap_mb",
        float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ]

(* The check that each workload stresses the layer it was chosen for,
   as a comment line: each phase's share of the phase total (the split
   `doall run --profile` prints), then the self time's share of the
   engine's run wall. *)
let print_shares values =
  let v = function
    | "oracle" -> List.assoc "_oracle_s" values
    | ph -> List.assoc ("engine." ^ ph ^ "_s") values
  in
  let phases = [ "deliver"; "algo_step"; "bcast_maint"; "adversary"; "oracle" ] in
  let total = sum v phases in
  Printf.printf "# phase shares:";
  List.iter (fun ph -> Printf.printf " %s %.3f" ph (v ph /. total)) phases;
  Printf.printf "; self %.3f of the run\n" (v "self" /. (total +. v "self"))

let run (w : Workloads.t) ~seed ~seconds ~trace =
  let g = Measure.gate () in
  let cells = w.cells ~seed in
  let values, catalog =
    if trace then (run_traced g w cells ~seconds, Catalog.per_layer)
    else (run_untraced g w cells ~seconds, Catalog.end_to_end)
  in
  let metrics =
    List.map (fun (m : Catalog.metric) -> (m, List.assoc m.name values)) catalog
  in
  List.iter
    (fun ((m : Catalog.metric), v) -> Printf.printf "%s %.6g %s\n" m.name v m.unit)
    metrics;
  if trace then print_shares values;
  Printf.printf "# %s seed %d: %d cells attempted, %d failed\n" w.name seed
    g.attempted g.failed;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (g.failed = 0));
            ("attempted", Json.Int g.attempted);
            ("failed", Json.Int g.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun ((m : Catalog.metric), v) ->
                     ( m.name,
                       Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.unit) ] ))
                   metrics) );
          ]))

let print_pins () =
  Doall_quorum.Register.install ();
  let specs =
    List.concat_map
      (fun (w : Workloads.t) ->
        List.concat_map (fun seed -> specs (w.cells ~seed)) [ 1; 2 ])
      Workloads.all
    |> List.sort_uniq (fun a b ->
           compare (Runner.spec_name a) (Runner.spec_name b))
  in
  let results =
    Doall_sim.Pool.with_pool ~jobs:2 (fun pool ->
        Runner.run_grid ~pool ~check:true specs)
  in
  print_string
    "(* W, M, sigma, executions and per-processor work hash of every cell\n\
    \   of every workload at seeds 1 and 2, audited by the invariant\n\
    \   oracle. Generated by `dune exec benchsuite/suite.exe --\n\
    \   --print-pins`; regenerate only after a deliberate change of the\n\
    \   simulated semantics or of the workloads, and say so in the commit. *)\n\n\
     let table =\n  [\n";
  List.iter2
    (fun s (r : Runner.result) ->
      let w, m, sigma, ex, h = Measure.fingerprint r.metrics in
      Printf.printf "    (%S, (%d, %d, %d, %d, %d));\n" (Runner.spec_name s) w m
        sigma ex h)
    specs results;
  print_string "  ]\n"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref false and pins = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 is the holdout)");
      ("--seconds", Arg.Set_int seconds, "N seconds of timed repetitions (default 10)");
      ( "--trace",
        Arg.Int
          (function
            | 0 -> trace := false
            | 1 -> trace := true
            | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 report per-layer metrics from a traced run" );
      ("--print-pins", Arg.Set pins, " print pins.ml for seeds 1 and 2");
    ]
  in
  let usage = "suite.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  if !pins then print_pins ()
  else
    match Workloads.find !workload with
    | Some w -> run w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:!trace
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
