(* doall: run message-delay-sensitive Do-All algorithms under adversarial
   simulation from the command line.

     doall list
     doall run --algo da-q4 --adv lb-det -p 32 -t 256 -d 16
     doall run --algo paran1 --adv fair -p 8 -t 64 -d 4 --trace
     doall run --algo paran1 --adv max-delay --obs out.jsonl
     doall run --algo padet --adv chaos --check --seed 7
     doall run --algo da-q4 --adv fair --faults drop=0.5,dup=0.2x2 --check
     doall trace --algo paran1 --adv fair -p 4 -t 16 --jsonl -
     doall trace --algo paran1 --adv max-delay -p 8 -t 64 --chrome tr.json
     doall obs diff run-a.jsonl run-b.jsonl --tol 1.5
     doall sweep --algo padet --adv max-delay -p 32 -t 256 --delays 1,4,16,64
     doall exp list
     doall exp run e1 e19 --jobs 2 --csv out/ --jsonl results.jsonl
     doall contention -n 6 --count 6 *)

open Cmdliner
open Doall_core
open Doall_analysis
module Export = Doall_obs.Export
module Progress = Doall_obs.Progress
module Exp = Doall_exp.Exp
module Ctx = Doall_exp.Ctx
module Catalog = Doall_exp.Catalog

let pos_int ~what v =
  if v <= 0 then `Error (Printf.sprintf "%s must be positive" what) else `Ok v

let p_arg =
  Arg.(value & opt int 16 & info [ "p"; "processors" ] ~docv:"P"
         ~doc:"Number of processors.")

let t_arg =
  Arg.(value & opt int 128 & info [ "t"; "tasks" ] ~docv:"T"
         ~doc:"Number of tasks.")

let d_arg =
  Arg.(value & opt int 8 & info [ "d"; "delay" ] ~docv:"D"
         ~doc:"Adversary's message-delay bound (unknown to the algorithms).")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let algo_arg =
  Arg.(value & opt string "da-q4" & info [ "algo" ] ~docv:"NAME"
         ~doc:"Algorithm name; see $(b,doall list).")

let adv_arg =
  Arg.(value & opt string "fair" & info [ "adv" ] ~docv:"NAME"
         ~doc:"Adversary name; see $(b,doall list).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Record and print the per-processor timeline (small runs).")

let jobs_arg =
  Arg.(value
       & opt int (Doall_sim.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the grid commands (sweep, compare). \
                 Results are identical for any N; default is the \
                 machine's recommended domain count.")

let obs_arg =
  Arg.(value & opt (some string) None & info [ "obs" ] ~docv:"FILE"
         ~doc:"Instrument the run with in-engine probes and write the \
               final snapshot as JSONL to $(docv) ('-' for stdout); \
               schema in docs/OBSERVABILITY.md. Metrics are identical \
               with and without probes.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Self-profile the engine's phases (deliver, algo_step, \
               adversary, bcast_maint, oracle) and print the wall-clock \
               breakdown on stderr; with --obs the snapshot also gets a \
               'phases' line. Metrics are identical with and without.")

let check_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Audit every tick with the invariant oracle and fail \
               loudly on the first violated invariant (docs/FAULTS.md). \
               Read-only: metrics are identical with and without.")

let faults_arg =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Overlay a message-fault policy on the adversary: \
               comma-separated $(b,drop=P), $(b,dup=P)[xN], \
               $(b,reorder=P), e.g. 'drop=0.3,dup=0.2x2,reorder=0.1'. \
               Beyond the paper's model; see docs/FAULTS.md.")

let max_time_arg =
  Arg.(value & opt (some int) None & info [ "max-time" ] ~docv:"N"
         ~doc:"Cap the run at $(docv) time units. A capped run prints \
               its partial metrics and exits nonzero instead of \
               pretending to be data.")

let transport_arg =
  Arg.(value & opt string "ptp" & info [ "transport" ] ~docv:"T"
         ~doc:"Network backend: $(b,ptp) (the paper's reliable \
               point-to-point model, the default), $(b,channel) \
               (multiple-access shared channel, one transmission slot \
               per time unit, collisions silent) or $(b,channel-detect) \
               (collisions detectable; colliders back off \
               deterministically). See docs/MODEL.md. Channel runs \
               reject --faults (the shared medium has its own loss \
               model: collisions).")

let parse_transport s =
  match Doall_sim.Config.transport_of_string s with
  | Ok tr -> tr
  | Error e ->
    prerr_endline ("doall: --transport: " ^ e);
    exit 2

(* Returns the policy with its normalized name, which doubles as the
   memo-cache tag for the experiment contexts. *)
let parse_faults = function
  | None -> None
  | Some spec -> (
    match Doall_adversary.Fault.of_spec spec with
    | Ok (policy, name) -> Some (name, policy)
    | Error msg ->
      prerr_endline ("doall: --faults: " ^ msg);
      exit 2)

let progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Render a live 'k/n cells, ETA' line on stderr while the \
               grid runs (only when stderr is a tty; CI logs stay \
               clean).")

(* Everything under run/trace that is commentary rather than data goes
   to stderr: '--obs -' and '--jsonl -' put machine-readable streams on
   stdout, and a summary mixed into them would corrupt the artifact. *)
let print_span_summary (sp : Span.snapshot) =
  Format.eprintf "phases (engine self-profile, wall-clock):@.";
  List.iter
    (fun (name, (total, count)) ->
      Format.eprintf "  %-12s %8.3f ms  x%d@." name (total *. 1e3) count)
    sp;
  Format.eprintf "  %-12s %8.3f ms@." "total" (Span.total sp *. 1e3)

let print_percentiles (s : Probe.snapshot) =
  List.iter
    (fun (name, (h : Probe.histogram_snapshot)) ->
      if h.Probe.count > 0 then begin
        let pc q =
          let lo, hi = Probe.percentile h q in
          if lo = hi then string_of_int lo else Printf.sprintf "%d..%d" lo hi
        in
        Format.eprintf "hist %-24s n=%-8d p50=%s p90=%s p99=%s max=%d@." name
          h.Probe.count (pc 0.50) (pc 0.90) (pc 0.99) h.Probe.max
      end)
    s.Probe.histograms

(* One cell's worth of export metadata, shared by run --obs and trace
   --jsonl. *)
let result_meta (r : Runner.result) p t d =
  Export.Json.
    [
      ("algo", Str r.Runner.algo);
      ("adv", Str r.Runner.adv);
      ("p", Int p);
      ("t", Int t);
      ("d", Int d);
      ("seed", Int r.Runner.seed);
      ("wall_s", Float r.Runner.wall_s);
    ]

(* ------------------------------------------------------------------ *)

let list_cmd =
  let doc = "List available algorithms and adversaries." in
  let run () =
    print_endline "Algorithms:";
    List.iter
      (fun s ->
        Printf.printf "  %-10s %s\n" s.Runner.algo_name s.Runner.doc)
      (Runner.all_algorithms ());
    print_endline "";
    print_endline "Adversaries:";
    List.iter
      (fun s -> Printf.printf "  %-18s %s\n" s.Runner.adv_name s.Runner.adv_doc)
      Runner.adversaries;
    print_endline "";
    print_endline
      "  strategy:<spec>    any strategy-DSL spec, compiled on the spot \
       (docs/FAULTS.md);\n\
      \                     e.g. --adv 'strategy:sched=laggard;delay=max' \
       or doall run --strategy ..."
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let strategy_arg =
  Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"SPEC"
         ~doc:"Run against a strategy-DSL spec instead of a named \
               adversary (shorthand for --adv strategy:$(docv)); the \
               grammar is in docs/FAULTS.md and what $(b,doall synth) \
               prints replays through this flag.")

let run_cmd =
  let doc = "Run one algorithm against one adversary and print metrics." in
  let run algo adv strategy p t d seed trace obs profile check faults_spec
      max_time transport =
    match (pos_int ~what:"p" p, pos_int ~what:"t" t) with
    | `Error e, _ | _, `Error e -> prerr_endline e; exit 2
    | `Ok p, `Ok t ->
      let adv =
        match strategy with None -> adv | Some s -> "strategy:" ^ s
      in
      let faults = Option.map snd (parse_faults faults_spec) in
      let transport = parse_transport transport in
      (try
         if trace then begin
           let result, tr =
             Runner.run_traced ~seed ~profile ~check ?faults ?max_time
               ~transport ~algo ~adv ~p ~t ~d ()
           in
           Option.iter print_span_summary result.Runner.spans;
           Format.printf "%a@." Doall_sim.Metrics.pp result.Runner.metrics;
           let until =
             min 120 (result.Runner.metrics.Doall_sim.Metrics.sigma + 1)
           in
           Format.printf "%a" Doall_sim.Trace.pp_timeline (tr, p, until);
           Format.printf
             "legend: # task step, o bookkeeping step, . delayed, H halt, \
              X crash, R restart@."
         end
         else begin
           let probe =
             match obs with None -> None | Some _ -> Some (Probe.create ())
           in
           let result =
             Runner.run ~seed ?probe ~profile ~check ?faults ?max_time
               ~transport ~algo ~adv ~p ~t ~d ()
           in
           Format.printf "%a@." Doall_sim.Metrics.pp result.Runner.metrics;
           Option.iter print_span_summary result.Runner.spans;
           Option.iter print_percentiles result.Runner.obs;
           let m = result.Runner.metrics in
           Format.printf "bounds: lower=%.0f pa-upper=%.0f oblivious=%.0f@."
             (Bounds.lower_bound ~p ~t ~d)
             (Bounds.pa_upper ~p ~t ~d)
             (Bounds.oblivious_work ~p ~t);
           Format.printf "effort (W+M) = %d@." (Doall_sim.Metrics.effort m);
           match obs with
           | None -> ()
           | Some path ->
             Export.with_out path (fun oc ->
                 Export.write_run oc
                   ~meta:(result_meta result p t d)
                   ?snapshot:result.Runner.obs ?spans:result.Runner.spans
                   result.Runner.metrics);
             if path <> "-" then
               Format.eprintf "wrote probe snapshot to %s@." path
         end
       with
      | Runner.Run_timeout { metrics; _ } ->
        Format.eprintf
          "doall: run hit the time cap at %d without completing@."
          metrics.Doall_sim.Metrics.sigma;
        Format.printf "partial %a@." Doall_sim.Metrics.pp metrics;
        exit 1
      | Doall_sim.Oracle.Invariant_violation v ->
        Format.eprintf "doall: %a@." Doall_sim.Oracle.pp_violation v;
        exit 1
      | Invalid_argument msg ->
        (* e.g. fault injection requested on the shared channel *)
        prerr_endline ("doall: " ^ msg);
        exit 2
      | Failure msg ->
        (* unknown names and unparsable strategy:<spec> arguments *)
        prerr_endline ("doall: " ^ msg);
        exit 2)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ algo_arg $ adv_arg $ strategy_arg $ p_arg $ t_arg
          $ d_arg $ seed_arg $ trace_arg $ obs_arg $ profile_arg $ check_arg
          $ faults_arg $ max_time_arg $ transport_arg)

let trace_cmd =
  let doc =
    "Run one instance with trace recording and export the event stream \
     as JSONL."
  in
  let jsonl_arg =
    Arg.(value & opt string "-" & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"Destination for the JSONL event stream ('-' = stdout, \
                 the default); one event per line, schema in \
                 docs/OBSERVABILITY.md.")
  in
  let chrome_arg =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Also export the run as a Chrome trace-event document \
                 ('-' = stdout): per-processor tracks, broadcast flow \
                 arrows and the engine phase profile, loadable in \
                 Perfetto / chrome://tracing.")
  in
  let run algo adv p t d seed jsonl chrome transport =
    match (pos_int ~what:"p" p, pos_int ~what:"t" t) with
    | `Error e, _ | _, `Error e -> prerr_endline e; exit 2
    | `Ok p, `Ok t ->
      (* The Chrome artifact carries an engine-profile track, so profile
         exactly when it is requested; the JSONL stream is unaffected. *)
      let profile = chrome <> None in
      let transport = parse_transport transport in
      let result, tr =
        Runner.run_traced ~seed ~profile ~transport ~algo ~adv ~p ~t ~d ()
      in
      Export.with_out jsonl (fun oc ->
          Export.write_trace oc
            ~meta:(result_meta result p t d)
            result.Runner.metrics tr);
      if jsonl <> "-" then
        Format.eprintf "wrote trace to %s@." jsonl;
      match chrome with
      | None -> ()
      | Some path ->
        Export.with_out path (fun oc ->
            Doall_obs.Chrome.write oc ?spans:result.Runner.spans ~p tr);
        if path <> "-" then
          Format.eprintf "wrote Chrome trace to %s@." path
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ algo_arg $ adv_arg $ p_arg $ t_arg $ d_arg $ seed_arg
          $ jsonl_arg $ chrome_arg $ transport_arg)

(* ------------------------------------------------------------------ *)

let obs_diff_cmd =
  let doc =
    "Compare two observability artifacts with per-metric tolerances."
  in
  let a_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A"
           ~doc:"First artifact (JSONL stream or whole-file JSON).")
  in
  let b_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B"
           ~doc:"Second artifact.")
  in
  let tol_arg =
    Arg.(value & opt float 1.5 & info [ "tol" ] ~docv:"RATIO"
           ~doc:"Max allowed ratio between machine-dependent numbers \
                 (wall_s and friends); every other value must match \
                 exactly.")
  in
  let run a b tol =
    match Doall_obs.Diff.compare_files ~tol a b with
    | Error e ->
      Printf.eprintf "doall: obs diff: %s\n" e;
      exit 2
    | Ok [] ->
      Printf.printf "%s and %s agree (machine-dependent values within %gx)\n"
        a b tol
    | Ok findings ->
      List.iter
        (fun f -> Format.printf "%a@." Doall_obs.Diff.pp_finding f)
        findings;
      Printf.printf "%d difference(s) between %s and %s\n"
        (List.length findings) a b;
      exit 1
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ a_arg $ b_arg $ tol_arg)

let obs_cmd =
  let doc = "Work with observability artifacts (snapshots, benches)." in
  Cmd.group (Cmd.info "obs" ~doc) [ obs_diff_cmd ]

let delays_arg =
  Arg.(value & opt (list int) [ 1; 2; 4; 8; 16; 32; 64 ]
       & info [ "delays" ] ~docv:"D1,D2,.." ~doc:"Delay bounds to sweep.")

let sweep_cmd =
  let doc = "Sweep the delay bound and tabulate work/messages." in
  let run algo adv p t delays seed jobs progress check faults_spec transport
      =
    let faults = parse_faults faults_spec in
    let transport = parse_transport transport in
    (* An anonymous spec through the same engine as the registered
       experiments: the context supplies the pool, the memo cache (one d
       requested twice simulates once), and the output sinks. *)
    let e =
      Exp.make
        ~id:(Printf.sprintf "sweep-%s-%s" algo adv)
        ~doc:"ad-hoc delay sweep" ~anchor:"CLI"
        ~axes:
          (Exp.axes ~algos:[ algo ] ~advs:[ adv ]
             ~points:(List.map (fun d -> (p, t, d)) delays)
             ~seeds:[ seed ] ())
        ~tables:[ "main" ]
        (fun ctx ->
          let tbl =
            Table.create
              ~title:(Printf.sprintf "%s vs %s, p=%d t=%d" algo adv p t)
              ~columns:[ "d"; "work"; "messages"; "sigma"; "redundant";
                         "lower-bound"; "W/LB"; "wall_s" ]
          in
          let specs =
            List.map
              (fun d -> Runner.spec ~seed ~transport ~algo ~adv ~p ~t ~d ())
              delays
          in
          let results = Ctx.grid ctx ~check ?faults specs in
          List.iter2
            (fun d (r : Runner.result) ->
              let m = r.Runner.metrics in
              let lb = Bounds.lower_bound ~p ~t ~d in
              Table.add_row tbl
                [
                  Table.cell_int d;
                  Table.cell_int m.Doall_sim.Metrics.work;
                  Table.cell_int m.Doall_sim.Metrics.messages;
                  Table.cell_int m.Doall_sim.Metrics.sigma;
                  Table.cell_int (Doall_sim.Metrics.redundant m);
                  Table.cell_float lb;
                  Table.cell_ratio (float_of_int m.Doall_sim.Metrics.work) lb;
                  Printf.sprintf "%.3f" r.Runner.wall_s;
                ])
            delays results;
          Table.add_note tbl
            "wall_s is per-cell wall-clock (machine-dependent; every other \
             column is deterministic)";
          Ctx.emit ctx ~name:"main" tbl)
    in
    Exp.run ~jobs ~progress e
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ algo_arg $ adv_arg $ p_arg $ t_arg $ delays_arg
          $ seed_arg $ jobs_arg $ progress_arg $ check_arg $ faults_arg
          $ transport_arg)

let compare_cmd =
  let doc = "Run several algorithms on one instance and tabulate them." in
  let algos_arg =
    Arg.(value
         & opt (list string) [ "trivial"; "da-q4"; "paran1"; "padet"; "coord" ]
         & info [ "algos" ] ~docv:"A,B,.." ~doc:"Algorithms to compare.")
  in
  let run algos adv p t d seed jobs progress check faults_spec transport =
    let faults = parse_faults faults_spec in
    let transport = parse_transport transport in
    let e =
      Exp.make ~id:(Printf.sprintf "compare-%s" adv)
        ~doc:"ad-hoc algorithm comparison" ~anchor:"CLI"
        ~axes:
          (Exp.axes ~algos ~advs:[ adv ] ~points:[ (p, t, d) ] ~seeds:[ seed ]
             ())
        ~tables:[ "main" ]
        (fun ctx ->
          let tbl =
            Table.create
              ~title:
                (Printf.sprintf "comparison vs %s, p=%d t=%d d=%d" adv p t d)
              ~columns:
                [ "algorithm"; "work"; "messages"; "effort"; "sigma";
                  "redundant" ]
          in
          let specs =
            List.map
              (fun algo -> Runner.spec ~seed ~transport ~algo ~adv ~p ~t ~d ())
              algos
          in
          let results = Ctx.grid ctx ~check ?faults specs in
          List.iter2
            (fun algo (r : Runner.result) ->
              let m = r.Runner.metrics in
              Table.add_row tbl
                [
                  algo;
                  Table.cell_int m.Doall_sim.Metrics.work;
                  Table.cell_int m.Doall_sim.Metrics.messages;
                  Table.cell_int (Doall_sim.Metrics.effort m);
                  Table.cell_int m.Doall_sim.Metrics.sigma;
                  Table.cell_int (Doall_sim.Metrics.redundant m);
                ])
            algos results;
          Table.add_note tbl
            (Printf.sprintf
               "oblivious baseline p*t = %d; delay-sensitive lower \
                bound = %.0f"
               (p * t)
               (Bounds.lower_bound ~p ~t ~d));
          Ctx.emit ctx ~name:"main" tbl)
    in
    Exp.run ~jobs ~progress e
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ algos_arg $ adv_arg $ p_arg $ t_arg $ d_arg $ seed_arg
          $ jobs_arg $ progress_arg $ check_arg $ faults_arg $ transport_arg)

(* ------------------------------------------------------------------ *)
(* Search-driven worst-case synthesis: evolve a strategy-DSL spec
   against one (algo, p, t, d) cell. Candidates run with the invariant
   oracle on by default, so the search doubles as a bug hunt: a
   violation scores as an instant maximum and fails the command. *)

module Synth = Doall_adversary.Synth
module Strategy = Doall_adversary.Strategy

let synth_cmd =
  let doc =
    "Search for a worst-case adversary strategy (evolutionary, \
     deterministic per seed)."
  in
  let budget_arg =
    Arg.(value & opt int 48 & info [ "budget" ] ~docv:"N"
           ~doc:"Candidate evaluations to spend (each is one full \
                 simulation of the cell).")
  in
  let population_arg =
    Arg.(value & opt int 12 & info [ "population" ] ~docv:"N"
           ~doc:"Population size of the evolutionary search.")
  in
  let fitness_arg =
    Arg.(value & opt string "work" & info [ "fitness" ] ~docv:"F"
           ~doc:"What to maximize: $(b,work), $(b,effort), $(b,sigma), \
                 $(b,cap-hits), or $(b,wall-per-work) (the last is \
                 wall-clock-based and therefore not deterministic).")
  in
  let space_arg =
    Arg.(value & opt (some string) None & info [ "space" ] ~docv:"S"
           ~doc:"Strategy space: $(b,full), $(b,live) or \
                 $(b,quorum-safe); default follows the algorithm's \
                 registered liveness requirement.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write JSONL search progress ('synth-gen' per \
                 generation, 'synth-best' at the end, plus a \
                 best-so-far probe series) to $(docv) ('-' for \
                 stdout).")
  in
  let wall_cap_arg =
    Arg.(value & opt (some float) None & info [ "wall-cap" ] ~docv:"SECONDS"
           ~doc:"Stop the search after $(docv) seconds of wall clock \
                 (finishing the in-flight generation). The reached \
                 generation count becomes machine-dependent; results \
                 up to each generation stay deterministic.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"CI smoke mode: shrink the population to 6 so a tiny \
                 --budget still gets past generation zero.")
  in
  let no_check_arg =
    Arg.(value & flag & info [ "no-check" ]
           ~doc:"Evaluate candidates without the invariant oracle \
                 (faster; forfeits the search's bug-hunting role).")
  in
  let run algo p t d seed budget population fitness space max_time out
      wall_cap quick no_check jobs transport =
    let transport = parse_transport transport in
    let fitness =
      match Synth.fitness_of_string fitness with
      | Ok f -> f
      | Error e -> prerr_endline ("doall: --fitness: " ^ e); exit 2
    in
    let space =
      match space with
      | None -> None
      | Some s -> (
        match Strategy.space_of_string s with
        | Ok sp -> Some sp
        | Error e -> prerr_endline ("doall: --space: " ^ e); exit 2)
    in
    let population = if quick then min population 6 else population in
    let probe = Probe.create () in
    let best_series = Probe.series probe "synth.best_work" in
    let run_search out_oc =
      let on_generation (pr : Synth.progress) =
        Printf.eprintf "gen %-3d evals %-4d best %-10g %s\n%!" pr.Synth.gen
          pr.evals pr.best_score pr.best_spec;
        (* infinity marks an oracle violation; clamp for the int series *)
        let w =
          if Float.is_finite pr.Synth.best_score then
            int_of_float (Float.min pr.Synth.best_score 1e9)
          else 1_000_000_000
        in
        Probe.sample best_series ~time:pr.Synth.gen w;
        Option.iter
          (fun oc ->
            Export.line oc ~kind:"synth-gen"
              Export.Json.
                [
                  ("gen", Int pr.Synth.gen);
                  ("evals", Int pr.evals);
                  ("best_score", Float pr.best_score);
                  ("best_spec", Str pr.best_spec);
                  ("capped", Int pr.capped);
                  ("violations", Int pr.violations);
                ])
          out_oc
      in
      let outcome =
        try
          Worstcase.search ~seed ~population ~fitness ?space ?max_time
            ~transport ?wall_cap_s:wall_cap ~check:(not no_check)
            ~on_generation ~jobs ~algo ~p ~t ~d ~budget ()
        with
        | Failure msg -> prerr_endline ("doall: " ^ msg); exit 2
        | Invalid_argument msg -> prerr_endline ("doall: " ^ msg); exit 2
      in
      let e = outcome.Synth.best_eval in
      Option.iter
        (fun oc ->
          Export.line oc ~kind:"synth-best"
            Export.Json.
              [
                ("algo", Str algo);
                ("p", Int p);
                ("t", Int t);
                ("d", Int d);
                ("seed", Int seed);
                ( "transport",
                  Str (Doall_sim.Config.transport_to_string transport) );
                ("fitness", Str (Synth.fitness_to_string fitness));
                ("spec", Str outcome.Synth.best_spec);
                ("score", Float outcome.Synth.best_score);
                ("work", Int e.Synth.e_work);
                ("messages", Int e.Synth.e_messages);
                ("sigma", Int e.Synth.e_sigma);
                ("completed", Int (if e.Synth.e_completed then 1 else 0));
                ("evals", Int outcome.Synth.evals);
                ("capped", Int outcome.Synth.capped);
                ("violations", Int (List.length outcome.Synth.violations));
              ];
          List.iter
            (fun (kind, fields) -> Export.line oc ~kind fields)
            (Export.snapshot_lines (Probe.snapshot probe)))
        out_oc;
      Printf.printf "best strategy (%s, %d evals, %d capped):\n  %s\n"
        (Synth.fitness_to_string fitness)
        outcome.Synth.evals outcome.Synth.capped outcome.Synth.best_spec;
      Printf.printf
        "  score=%g work=%d messages=%d sigma=%d completed=%b\n"
        outcome.Synth.best_score e.Synth.e_work e.Synth.e_messages
        e.Synth.e_sigma e.Synth.e_completed;
      Printf.printf
        "replay:\n\
        \  doall run --algo %s --strategy '%s' -p %d -t %d -d %d --seed \
         %d%s --check\n"
        algo outcome.Synth.best_spec p t d seed
        (match transport with
        | Doall_sim.Config.Ptp -> ""
        | tr ->
          " --transport " ^ Doall_sim.Config.transport_to_string tr);
      if outcome.Synth.violations <> [] then begin
        Printf.eprintf
          "doall: %d candidate(s) violated the invariant oracle:\n"
          (List.length outcome.Synth.violations);
        List.iter
          (fun (spec, v) -> Printf.eprintf "  %s\n    %s\n" spec v)
          outcome.Synth.violations;
        exit 1
      end
    in
    match out with
    | None -> run_search None
    | Some path -> Export.with_out path (fun oc -> run_search (Some oc))
  in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(const run $ algo_arg $ p_arg $ t_arg $ d_arg $ seed_arg
          $ budget_arg $ population_arg $ fitness_arg $ space_arg
          $ max_time_arg $ out_arg $ wall_cap_arg $ quick_arg $ no_check_arg
          $ jobs_arg $ transport_arg)

(* ------------------------------------------------------------------ *)
(* Fuzz-case replay: one integer seed rebuilds the exact failing run the
   fuzz suite printed (dimensions, strategy, engine streams). *)

let fuzz_cmd =
  let doc = "Replay a fuzz-suite case from its reproducer seed." in
  let replay_arg =
    Arg.(required & opt (some int) None & info [ "replay" ] ~docv:"SEED"
           ~doc:"The reproducer seed printed by the fuzz suite.")
  in
  let label_arg =
    Arg.(value & opt (some string) None & info [ "algo" ] ~docv:"LABEL"
           ~doc:"Replay only this algorithm label (default: all fuzzed \
                 labels).")
  in
  let quorum_arg =
    Arg.(value & flag & info [ "quorum-safe" ]
           ~doc:"Force the quorum-safe case derivation (implied for the \
                 quorum labels).")
  in
  let makers =
    Fuzz_audit.core_makers
    @ [ ("awq-q4", fun () -> Doall_quorum.Algo_awq.make ~q:4 ()) ]
  in
  let quorum_labels = [ "awq-q4" ] in
  let run seed label quorum_flag =
    let labels =
      match label with
      | Some l when List.mem_assoc l makers -> [ l ]
      | Some l ->
        Printf.eprintf "doall: unknown fuzz label %S; known: %s\n" l
          (String.concat ", " (List.map fst makers));
        exit 2
      | None -> Doall_adversary.Fuzz_gen.labels
    in
    let failed = ref false in
    List.iter
      (fun label ->
        let quorum_safe = quorum_flag || List.mem label quorum_labels in
        let case = Doall_adversary.Fuzz_gen.case ~seed ~quorum_safe in
        let { Doall_adversary.Fuzz_gen.p; t; d; transport; strategy } =
          case
        in
        let spec = Strategy.to_spec strategy in
        Printf.printf "%-16s p=%-3d t=%-3d d=%-3d transport=%s strategy:%s\n"
          label p t d
          (Doall_sim.Config.transport_to_string transport)
          spec;
        let adversary = Strategy.into strategy in
        (match
           Fuzz_audit.audit ~transport
             ((List.assoc label makers) ())
             ~p ~t ~d ~adversary ~seed
         with
        | Ok m ->
          Printf.printf "  ok: work=%d messages=%d sigma=%d\n"
            m.Doall_sim.Metrics.work m.Doall_sim.Metrics.messages
            m.Doall_sim.Metrics.sigma
        | Error e ->
          failed := true;
          Printf.printf "  FAIL: %s\n" e);
        (* the same run through the registry, for ad-hoc poking (only
           the labels that name registry algorithms) *)
        match Runner.find_algo label with
        | exception Failure _ -> ()
        | _ ->
          Printf.printf
            "  rerun: doall run --algo %s --adv 'strategy:%s' -p %d -t %d \
             -d %d --seed %d%s --check\n"
            label spec p t d seed
            (match transport with
            | Doall_sim.Config.Ptp -> ""
            | tr ->
              " --transport " ^ Doall_sim.Config.transport_to_string tr))
      labels;
    if !failed then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ replay_arg $ label_arg $ quorum_arg)

(* ------------------------------------------------------------------ *)
(* The experiment registry (lib/exp/catalog.ml), surfaced on the
   CLI. `list` and `describe` read the declarative metadata; `run`
   executes bodies through the lib/exp engine (pool parallelism, cell
   memo cache, --csv / --jsonl sinks). *)

let exp_ids_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"ID"
           ~doc:"Experiment ids (see $(b,doall exp list)); default all.")

let unknown_exp id =
  Printf.eprintf "doall: unknown experiment %S; known experiments:\n" id;
  List.iter
    (fun e -> Printf.eprintf "  %-5s %s\n" e.Exp.id (Exp.one_liner e))
    (Exp.all ());
  exit 2

let resolve_exps = function
  | [] -> Exp.all ()
  | ids ->
    List.map
      (fun id ->
        match Exp.find id with Some e -> e | None -> unknown_exp id)
      ids

let exp_list_cmd =
  let doc = "List registered experiments with their one-line docs." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-5s %s\n" e.Exp.id (Exp.one_liner e))
      (Exp.all ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let exp_describe_cmd =
  let doc = "Show an experiment's declarative spec (axes, tables, CSVs)." in
  let run ids =
    List.iteri
      (fun i e ->
        if i > 0 then print_newline ();
        print_string (Exp.describe e))
      (resolve_exps ids)
  in
  Cmd.v (Cmd.info "describe" ~doc) Term.(const run $ exp_ids_arg)

let exp_run_cmd =
  let doc = "Run experiments through the declarative engine." in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write every table as $(docv)/<exp>-<table>.csv \
                 (stable names; the directory is created if needed).")
  in
  let jsonl_arg =
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"Append versioned table/row JSONL lines to $(docv) \
                 ('-' for stdout); schema in docs/OBSERVABILITY.md.")
  in
  let run ids jobs csv jsonl progress =
    let es = resolve_exps ids in
    Option.iter
      (fun dir -> try Sys.mkdir dir 0o755 with Sys_error _ -> ())
      csv;
    (* One pool shared by every requested experiment; each gets a fresh
       context (the memo cache is per-experiment by design). *)
    let pool = Doall_sim.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Doall_sim.Pool.shutdown pool)
      (fun () ->
        let run_all jsonl_oc =
          List.iter
            (fun e ->
              Exp.run ~pool ?csv_dir:csv ?jsonl:jsonl_oc ~progress e;
              print_newline ())
            es
        in
        match jsonl with
        | None -> run_all None
        | Some path -> Export.with_out path (fun oc -> run_all (Some oc)))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ exp_ids_arg $ jobs_arg $ csv_arg $ jsonl_arg
          $ progress_arg)

let exp_cmd =
  let doc = "Inspect and run the declarative experiment registry." in
  Cmd.group (Cmd.info "exp" ~doc)
    [ exp_list_cmd; exp_describe_cmd; exp_run_cmd ]

let lemma32_cmd =
  let doc = "Numerically verify Lemma 3.2 (Appendix A) over a range of u." in
  let umax_arg =
    Arg.(value & opt int 2000 & info [ "u-max" ] ~docv:"U"
           ~doc:"Largest u to scan.")
  in
  let run u_max =
    if u_max < 2 then begin
      prerr_endline "doall: --u-max: must be >= 2";
      exit 2
    end;
    match Lemma32.first_counterexample ~u_max with
    | None ->
      Printf.printf
        "Lemma 3.2 verified: for all 2 <= u <= %d and 1 <= d <= sqrt u,\n\
        \  C(u-d, u/(d+1)) / C(u, u/(d+1)) >= 1/4 and the proof's sandwich \
         holds.\n"
        u_max;
      List.iter
        (fun (u, d) ->
          Printf.printf "  sample: u=%-6d d=%-4d ratio=%.4f\n" u d
            (Lemma32.ratio ~u ~d))
        [ (100, 1); (100, 10); (10_000, 100); (u_max, 1) ]
    | Some (u, d) ->
      Printf.printf "COUNTEREXAMPLE: u=%d d=%d ratio=%.6f\n" u d
        (Lemma32.ratio ~u ~d);
      exit 1
  in
  Cmd.v (Cmd.info "lemma32" ~doc) Term.(const run $ umax_arg)

let contention_cmd =
  let doc = "Search for a low-contention permutation list and report it." in
  let n_arg =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N"
           ~doc:"Permutation size (2..8 for certified search).")
  in
  let run n seed =
    if n < 2 || n > 8 then begin
      prerr_endline "doall: -n: must be in 2..8 (certified search)";
      exit 2
    end;
    let rng = Doall_sim.Rng.create seed in
    let cert = Doall_perms.Search.certified ~rng n in
    Printf.printf "n=%d  Cont(psi)=%d  bound 3nH_n=%.2f\n" n
      cert.Doall_perms.Search.contention cert.Doall_perms.Search.bound;
    List.iteri
      (fun i pi ->
        Format.printf "  pi_%d = %a@." i Doall_perms.Perm.pp pi)
      cert.Doall_perms.Search.list;
    (* exact d-contention profile: how the Lemma 6.1 work bound relaxes
       as the delay budget grows *)
    let profile =
      Array.init (n + 1) (fun d ->
          if d = 0 then 0
          else
            Doall_perms.Contention.d_contention_exact ~d
              cert.Doall_perms.Search.list)
    in
    print_endline "exact (d)-Cont profile (the PA work bound per Lemma 6.1):";
    for d = 1 to n do
      Printf.printf "  d=%-2d  %d\n" d profile.(d)
    done;
    let points =
      List.init n (fun i ->
          (float_of_int (i + 1), float_of_int profile.(i + 1)))
    in
    print_string
      (Plot.render ~width:40 ~height:10
         [ { Plot.label = "(d)-Cont(psi)"; points } ])
  in
  Cmd.v (Cmd.info "contention" ~doc) Term.(const run $ n_arg $ seed_arg)

let main =
  let doc = "message-delay-sensitive Do-All algorithms (Kowalski-Shvartsman)" in
  Cmd.group (Cmd.info "doall" ~doc)
    [ list_cmd; run_cmd; trace_cmd; obs_cmd; sweep_cmd; compare_cmd;
      synth_cmd; fuzz_cmd; exp_cmd; contention_cmd; lemma32_cmd ]

let () =
  (* Multicore grids stall on stop-the-world minor collections with the
     default minor heap; 2M words per domain keeps the rendezvous rate
     low enough that --jobs scales (docs/PERFORMANCE.md has the
     calibration). *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  Doall_quorum.Register.install ();
  Catalog.install ();
  exit (Cmd.eval main)
