(* doall: run message-delay-sensitive Do-All algorithms under adversarial
   simulation from the command line. `doall --help` lists the commands
   and the exit statuses; README.md's Quickstart has worked examples. *)

open Cmdliner
open Doall_core
open Doall_analysis
module Export = Doall_obs.Export
module Metrics = Doall_sim.Metrics
module Exp = Doall_exp.Exp
module Ctx = Doall_exp.Ctx
module Catalog = Doall_exp.Catalog

(* ------------------------------------------------------------------ *)
(* Validated arguments. Every check on user input is a term here that
   the commands reuse: a rejected value prints "doall: FLAG: why" and
   exits 2 (Cmd.eval ~term_err:2) before the command runs or prints
   anything. *)

(* [checked flag check arg] is [arg]'s value passed through [check]; an
   [Error] is reported against [flag]. *)
let checked flag check arg =
  let check v = Result.map_error (fun e -> flag ^ ": " ^ e) (check v) in
  Term.(term_result' ~usage:false (const check $ arg))

let at_least lo v =
  if v >= lo then Ok v else Error (Printf.sprintf "must be >= %d, got %d" lo v)

let in_range lo hi v =
  if lo <= v && v <= hi then Ok v
  else Error (Printf.sprintf "must be in %d..%d, got %d" lo hi v)

let optional check = function
  | None -> Ok None
  | Some v -> Result.map Option.some (check v)

(* a list of at least one value, each passing [check] *)
let each check = function
  | [] -> Error "must name at least one value"
  | vs ->
    List.fold_right
      (fun v acc ->
        Result.bind (check v) (fun v -> Result.map (List.cons v) acc))
      vs (Ok [])

(* a registry name, checked by a lookup that raises [Failure] *)
let known find name =
  match find name with _ -> Ok name | exception Failure e -> Error e

let one arg = Term.(const (fun v -> [ v ]) $ arg)

(* An output the command writes after its run: a path must name a
   writable place, checked without creating anything, so a bad path is
   refused before the run rather than after it. *)
let writable path =
  match Unix.access path [ Unix.W_OK ] with
  | () -> true
  | exception Unix.Unix_error _ -> false

let directory path = Sys.file_exists path && Sys.is_directory path

(* a file: '-' (stdout), or a non-directory in a writable directory *)
let out_file path =
  let dir = Filename.dirname path in
  if path = "-" then Ok path
  else if directory path then Error (Printf.sprintf "%S is a directory" path)
  else if not (directory dir) then
    Error (Printf.sprintf "directory %S does not exist" dir)
  else if not (writable (if Sys.file_exists path then path else dir)) then
    Error (Printf.sprintf "%S is not writable" path)
  else Ok path

(* a directory that exists and is writable, or can be made in one *)
let out_dir path =
  let parent = Filename.dirname path in
  if directory path then
    if writable path then Ok path
    else Error (Printf.sprintf "directory %S is not writable" path)
  else if Sys.file_exists path then
    Error (Printf.sprintf "%S is not a directory" path)
  else if not (directory parent && writable parent) then
    Error (Printf.sprintf "cannot make directory %S" path)
  else Ok path

(* a message's due is at most d after its send, and a queued due is an
   int of at most [Msg_ring.max_due] *)
let delay = in_range 0 Doall_sim.Msg_ring.max_due

let p_arg =
  checked "-p" (at_least 1)
    Arg.(value & opt int 16 & info [ "p"; "processors" ] ~docv:"P"
           ~doc:"Number of processors.")

let t_arg =
  checked "-t" (at_least 1)
    Arg.(value & opt int 128 & info [ "t"; "tasks" ] ~docv:"T"
           ~doc:"Number of tasks.")

(* 0 is legal and read as 1, as the engine does *)
let d_arg =
  checked "-d" delay
    Arg.(value & opt int 8 & info [ "d"; "delay" ] ~docv:"D"
           ~doc:"Adversary's message-delay bound (unknown to the algorithms).")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let algo_arg =
  checked "--algo" (known Runner.find_algo)
    Arg.(value & opt string "da-q4" & info [ "algo" ] ~docv:"NAME"
           ~doc:"Algorithm name; see $(b,doall list).")

(* [Runner.find_adv] also compiles strategy:<spec> names *)
let adv_arg =
  checked "--adv" (known Runner.find_adv)
    Arg.(value & opt string "fair" & info [ "adv" ] ~docv:"NAME"
           ~doc:"Adversary name; see $(b,doall list).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Record and print the per-processor timeline (small runs).")

let jobs_arg =
  checked "--jobs" (at_least 1)
    Arg.(value
         & opt int (Doall_sim.Pool.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the grid commands (sweep, compare). \
                   Results are identical for any N; default is the \
                   machine's recommended domain count.")

let obs_arg =
  checked "--obs" (optional out_file)
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

(* The policy with its normalized name, which doubles as the memo-cache
   tag for the experiment contexts. *)
let faults_arg =
  checked "--faults"
    (optional (fun spec ->
         Result.map (fun (policy, name) -> (name, policy))
           (Doall_adversary.Fault.of_spec spec)))
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Overlay a message-fault policy on the adversary: \
                 comma-separated $(b,drop=P), $(b,dup=P)[xN], \
                 $(b,reorder=P), e.g. 'drop=0.3,dup=0.2x2,reorder=0.1'. \
                 Beyond the paper's model; see docs/FAULTS.md.")

let max_time_arg =
  checked "--max-time" (optional (at_least 1))
    Arg.(value & opt (some int) None & info [ "max-time" ] ~docv:"N"
           ~doc:"Cap the run at $(docv) time units. A capped run prints \
                 its partial metrics and exits nonzero instead of \
                 pretending to be data.")

let transport_arg =
  checked "--transport" Doall_sim.Config.transport_of_string
    Arg.(value & opt string "ptp" & info [ "transport" ] ~docv:"T"
           ~doc:"Network backend: $(b,ptp) (the paper's reliable \
                 point-to-point model, the default), $(b,channel) \
                 (multiple-access shared channel, one transmission slot \
                 per time unit, collisions silent) or $(b,channel-detect) \
                 (collisions detectable; colliders back off \
                 deterministically). See docs/MODEL.md. Channel runs \
                 reject --faults (the shared medium has its own loss \
                 model: collisions).")

let on_channel = function
  | Doall_sim.Config.Channel _ -> true
  | Doall_sim.Config.Ptp -> false

(* The transport and fault overlay a command's cells share, checked
   against their adversary: message faults act on point-to-point copies,
   so a channel run rejects a --faults overlay and an adversary with a
   fault policy of its own (the engine refuses both). *)
let net ?(faults = Term.const None) ~adv ~ds () =
  let check adv p t ds transport faults =
    let injects d =
      Option.is_some
        ((Runner.find_adv adv).Runner.instantiate ~p ~t ~d)
          .Doall_sim.Adversary.faults
    in
    if not (on_channel transport) then Ok (transport, faults)
    else if Option.is_some faults then
      Error "--faults: channel runs take no message faults"
    else if List.exists injects ds then
      Error
        (Printf.sprintf
           "--transport: adversary %S injects message faults, which \
            channel runs reject"
           adv)
    else Ok (transport, faults)
  in
  Term.(term_result' ~usage:false
          (const check $ adv $ p_arg $ t_arg $ ds $ transport_arg $ faults))

(* the --transport flag that replays a run, empty for the default *)
let transport_flag = function
  | Doall_sim.Config.Ptp -> ""
  | tr -> " --transport " ^ Doall_sim.Config.transport_to_string tr

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
    [ ("algo", Str r.Runner.algo); ("adv", Str r.Runner.adv); ("p", Int p);
      ("t", Int t); ("d", Int d); ("seed", Int r.Runner.seed);
      ("wall_s", Float r.Runner.wall_s) ]

(* Outcomes that are results, not bugs: each prints its message and
   exits 1. Any other exception escaping a run stays Cmdliner's internal
   error (125). Every command that runs cells runs under [outcome]. *)
let capped (m : Metrics.t) =
  Format.eprintf "doall: run hit the time cap at %d without completing@."
    m.sigma;
  Format.printf "partial %a@." Metrics.pp m;
  exit 1

let outcome f =
  try f () with
  | Runner.Run_timeout { metrics; _ } -> capped metrics
  | Runner.Grid_incomplete _ as e ->
    Format.eprintf "doall: %s@." (Printexc.to_string e);
    exit 1
  | Doall_sim.Oracle.Invariant_violation v ->
    Format.eprintf "doall: %a@." Doall_sim.Oracle.pp_violation v;
    exit 1

(* [Runner.run_traced] reports a cap in its metrics instead of raising *)
let traced_completed (r : Runner.result) =
  if not r.Runner.metrics.Metrics.completed then capped r.Runner.metrics

(* write an artifact to [path] ('-' for stdout), saying where on stderr *)
let write_artifact what path f =
  Export.with_out path f;
  if path <> "-" then Format.eprintf "wrote %s to %s@." what path

(* [f] on the channel of [path] ('-' for stdout), or on [None] *)
let with_out_opt path f =
  match path with
  | None -> f None
  | Some path -> Export.with_out path (fun oc -> f (Some oc))

(* The one exit-status contract, listed under EXIT STATUS in every
   command's --help. *)
let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success.";
      info 1
        ~doc:"when a run was capped, the invariant oracle fired, \
              $(b,lemma32) found a counterexample, $(b,obs diff) found \
              differences, or a $(b,fuzz) replay failed.";
      info 2 ~doc:"when an argument was rejected; the message names the flag.";
      info cli_error ~doc:"on a malformed command line.";
      info internal_error ~doc:"on an internal error, which is a bug.";
    ]

let cmd_info name ~doc = Cmd.info name ~doc ~exits

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
  Cmd.v (cmd_info "list" ~doc) Term.(const run $ const ())

let strategy_arg =
  checked "--strategy"
    (optional (fun spec -> known Runner.find_adv ("strategy:" ^ spec)))
    Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"SPEC"
           ~doc:"Run against a strategy-DSL spec instead of a named \
                 adversary (shorthand for --adv strategy:$(docv)); the \
                 grammar is in docs/FAULTS.md and what $(b,doall synth) \
                 prints replays through this flag.")

let run_cmd =
  let doc = "Run one algorithm against one adversary and print metrics." in
  let adv =
    Term.(const (fun strategy adv -> Option.value strategy ~default:adv)
          $ strategy_arg $ adv_arg)
  in
  let run algo adv p t d seed trace obs profile check max_time
      (transport, faults) =
    let faults = Option.map snd faults in
    outcome @@ fun () ->
    if trace then begin
      let result, tr =
        Runner.run_traced ~seed ~profile ~check ?faults ?max_time ~transport
          ~algo ~adv ~p ~t ~d ()
      in
      traced_completed result;
      Option.iter print_span_summary result.Runner.spans;
      Format.printf "%a@." Metrics.pp result.Runner.metrics;
      let until = min 120 (result.Runner.metrics.Metrics.sigma + 1) in
      Format.printf "%a" Doall_sim.Trace.pp_timeline (tr, p, until);
      Format.printf
        "legend: # task step, o bookkeeping step, . delayed, H halt, X \
         crash, R restart@."
    end
    else begin
      let probe = Option.map (fun _ -> Probe.create ()) obs in
      (* [run_spec] reports a cap in the metrics instead of raising, so a
         capped run still writes its partial snapshot ([completed]
         false) before it exits 1 *)
      let result =
        Runner.run_spec ?probe ~profile ~check ?faults ?max_time
          (Runner.spec ~seed ~transport ~algo ~adv ~p ~t ~d ())
      in
      let m = result.Runner.metrics in
      let export () =
        Option.iter
          (fun path ->
            write_artifact "probe snapshot" path (fun oc ->
                Export.write_run oc
                  ~meta:(result_meta result p t d)
                  ?snapshot:result.Runner.obs ?spans:result.Runner.spans m))
          obs
      in
      if not m.Metrics.completed then begin
        export ();
        capped m
      end;
      Format.printf "%a@." Metrics.pp m;
      Option.iter print_span_summary result.Runner.spans;
      Option.iter print_percentiles result.Runner.obs;
      Format.printf "bounds: lower=%.0f pa-upper=%.0f oblivious=%.0f@."
        (Bounds.lower_bound ~p ~t ~d)
        (Bounds.pa_upper ~p ~t ~d)
        (Bounds.oblivious_work ~p ~t);
      Format.printf "effort (W+M) = %d@." (Metrics.effort m);
      export ()
    end
  in
  Cmd.v (cmd_info "run" ~doc)
    Term.(const run $ algo_arg $ adv $ p_arg $ t_arg $ d_arg $ seed_arg
          $ trace_arg $ obs_arg $ profile_arg $ check_arg $ max_time_arg
          $ net ~faults:faults_arg ~adv ~ds:(one d_arg) ())

let trace_cmd =
  let doc =
    "Run one instance with trace recording and export the event stream \
     as JSONL."
  in
  let jsonl_arg =
    checked "--jsonl" out_file
      Arg.(value & opt string "-" & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Destination for the JSONL event stream ('-' = stdout, \
                   the default); one event per line, schema in \
                   docs/OBSERVABILITY.md.")
  in
  let chrome_arg =
    checked "--chrome" (optional out_file)
      Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Also export the run as a Chrome trace-event document \
                   ('-' = stdout): per-processor tracks, broadcast flow \
                   arrows and the engine phase profile, loadable in \
                   Perfetto / chrome://tracing.")
  in
  let run algo adv p t d seed jsonl chrome (transport, _) =
    outcome @@ fun () ->
    (* The Chrome artifact carries an engine-profile track, so profile
       exactly when it is requested; the JSONL stream is unaffected. *)
    let profile = chrome <> None in
    let result, tr =
      Runner.run_traced ~seed ~profile ~transport ~algo ~adv ~p ~t ~d ()
    in
    traced_completed result;
    write_artifact "trace" jsonl (fun oc ->
        Export.write_trace oc
          ~meta:(result_meta result p t d)
          result.Runner.metrics tr);
    Option.iter
      (fun path ->
        write_artifact "Chrome trace" path (fun oc ->
            Doall_obs.Chrome.write oc ?spans:result.Runner.spans ~p tr))
      chrome
  in
  Cmd.v (cmd_info "trace" ~doc)
    Term.(const run $ algo_arg $ adv_arg $ p_arg $ t_arg $ d_arg $ seed_arg
          $ jsonl_arg $ chrome_arg $ net ~adv:adv_arg ~ds:(one d_arg) ())

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
  Cmd.v (cmd_info "diff" ~doc) Term.(const run $ a_arg $ b_arg $ tol_arg)

let obs_cmd =
  let doc = "Work with observability artifacts (snapshots, benches)." in
  Cmd.group (cmd_info "obs" ~doc) [ obs_diff_cmd ]

let delays_arg =
  checked "--delays" (each delay)
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 16; 32; 64 ]
         & info [ "delays" ] ~docv:"D1,D2,.." ~doc:"Delay bounds to sweep.")

(* sweep and compare: an anonymous experiment over algos x [adv] x ds,
   through the same engine as the registered ones. The context supplies
   the pool, the memo cache (a cell requested twice simulates once) and
   the output sinks; [row] tabulates one cell. *)
let grid_cmd name ~doc ~algos ~ds ~id ~title ~columns ~note ~row =
  let run algos adv p t ds seed jobs progress check (transport, faults) =
    let points = List.map (fun d -> (p, t, d)) ds in
    let e =
      Exp.make ~id:(id algos adv) ~doc ~anchor:"CLI"
        ~axes:(Exp.axes ~algos ~advs:[ adv ] ~points ~seeds:[ seed ] ())
        ~tables:[ "main" ]
        (fun ctx ->
          let tbl = Table.create ~title:(title algos adv p t ds) ~columns in
          let specs =
            Runner.grid ~seeds:[ seed ] ~transport ~algos ~advs:[ adv ]
              ~points ()
          in
          List.iter2
            (fun s r -> Table.add_row tbl (row s r))
            specs
            (Ctx.grid ctx ~check ?faults specs);
          Table.add_note tbl (note p t ds);
          Ctx.emit ctx ~name:"main" tbl)
    in
    outcome @@ fun () -> Exp.run ~jobs ~progress e
  in
  Cmd.v (cmd_info name ~doc)
    Term.(const run $ algos $ adv_arg $ p_arg $ t_arg $ ds $ seed_arg
          $ jobs_arg $ progress_arg $ check_arg
          $ net ~faults:faults_arg ~adv:adv_arg ~ds ())

let sweep_cmd =
  grid_cmd "sweep" ~doc:"Sweep the delay bound and tabulate work/messages."
    ~algos:(one algo_arg) ~ds:delays_arg
    ~id:(fun algos adv -> Printf.sprintf "sweep-%s-%s" (List.hd algos) adv)
    ~title:(fun algos adv p t _ ->
      Printf.sprintf "%s vs %s, p=%d t=%d" (List.hd algos) adv p t)
    ~columns:[ "d"; "work"; "messages"; "sigma"; "redundant"; "lower-bound";
               "W/LB"; "wall_s" ]
    ~note:(fun _ _ _ ->
      "wall_s is per-cell wall-clock (machine-dependent; every other column \
       is deterministic)")
    ~row:(fun (s : Runner.run_spec) (r : Runner.result) ->
      let m = r.Runner.metrics in
      let lb = Bounds.lower_bound ~p:s.Runner.p ~t:s.Runner.t ~d:s.Runner.d in
      [
        Table.cell_int s.Runner.d;
        Table.cell_int m.Metrics.work;
        Table.cell_int m.Metrics.messages;
        Table.cell_int m.Metrics.sigma;
        Table.cell_int (Metrics.redundant m);
        Table.cell_float lb;
        Table.cell_ratio (float_of_int m.Metrics.work) lb;
        Printf.sprintf "%.3f" r.Runner.wall_s;
      ])

let compare_cmd =
  grid_cmd "compare"
    ~doc:"Run several algorithms on one instance and tabulate them."
    ~algos:
      (checked "--algos" (each (known Runner.find_algo))
         Arg.(value
              & opt (list string)
                  [ "trivial"; "da-q4"; "paran1"; "padet"; "coord" ]
              & info [ "algos" ] ~docv:"A,B,.." ~doc:"Algorithms to compare."))
    ~ds:(one d_arg)
    ~id:(fun _ adv -> Printf.sprintf "compare-%s" adv)
    ~title:(fun _ adv p t ds ->
      Printf.sprintf "comparison vs %s, p=%d t=%d d=%d" adv p t (List.hd ds))
    ~columns:[ "algorithm"; "work"; "messages"; "effort"; "sigma"; "redundant" ]
    ~note:(fun p t ds ->
      Printf.sprintf
        "oblivious baseline p*t = %d; delay-sensitive lower bound = %.0f"
        (p * t)
        (Bounds.lower_bound ~p ~t ~d:(List.hd ds)))
    ~row:(fun s r ->
      let m = r.Runner.metrics in
      [
        s.Runner.spec_algo;
        Table.cell_int m.Metrics.work;
        Table.cell_int m.Metrics.messages;
        Table.cell_int (Metrics.effort m);
        Table.cell_int m.Metrics.sigma;
        Table.cell_int (Metrics.redundant m);
      ])

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
    checked "--budget" (at_least 1)
      Arg.(value & opt int 48 & info [ "budget" ] ~docv:"N"
             ~doc:"Candidate evaluations to spend (each is one full \
                   simulation of the cell).")
  in
  let population_arg =
    Arg.(value & opt int 12 & info [ "population" ] ~docv:"N"
           ~doc:"Population size of the evolutionary search.")
  in
  let fitness_arg =
    checked "--fitness" Synth.fitness_of_string
      Arg.(value & opt string "work" & info [ "fitness" ] ~docv:"F"
             ~doc:"What to maximize: $(b,work), $(b,effort), $(b,sigma), \
                   $(b,cap-hits), or $(b,wall-per-work) (the last is \
                   wall-clock-based and therefore not deterministic).")
  in
  (* the space with the transport it searches on: a channel has its own
     loss model, so it takes no message-fault space *)
  let space_arg =
    let space =
      checked "--space" (optional Strategy.space_of_string)
        Arg.(value & opt (some string) None & info [ "space" ] ~docv:"S"
               ~doc:"Strategy space: $(b,full), $(b,live) or \
                     $(b,quorum-safe); default follows the algorithm's \
                     registered liveness requirement.")
    in
    let check space transport =
      match space with
      | Some (Strategy.Live | Strategy.Full) when on_channel transport ->
        Error
          "--space: live and full search message faults, which channel \
           runs reject; use in-model"
      | _ -> Ok (space, transport)
    in
    Term.(term_result' ~usage:false (const check $ space $ transport_arg))
  in
  let out_arg =
    checked "--out" (optional out_file)
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
  let run algo p t d seed budget population fitness (space, transport)
      max_time out wall_cap quick no_check jobs =
    outcome @@ fun () ->
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
                [ ("gen", Int pr.Synth.gen); ("evals", Int pr.evals);
                  ("best_score", Float pr.best_score);
                  ("best_spec", Str pr.best_spec); ("capped", Int pr.capped);
                  ("violations", Int pr.violations) ])
          out_oc
      in
      let found =
        Worstcase.search ~seed ~population ~fitness ?space ?max_time
          ~transport ?wall_cap_s:wall_cap ~check:(not no_check)
          ~on_generation ~jobs ~algo ~p ~t ~d ~budget ()
      in
      let e = found.Synth.best_eval in
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
                ("spec", Str found.Synth.best_spec);
                ("score", Float found.Synth.best_score);
                ("work", Int e.Synth.e_work);
                ("messages", Int e.Synth.e_messages);
                ("sigma", Int e.Synth.e_sigma);
                ("completed", Int (if e.Synth.e_completed then 1 else 0));
                ("evals", Int found.Synth.evals);
                ("capped", Int found.Synth.capped);
                ("violations", Int (List.length found.Synth.violations));
              ];
          List.iter
            (fun (kind, fields) -> Export.line oc ~kind fields)
            (Export.snapshot_lines (Probe.snapshot probe)))
        out_oc;
      Printf.printf "best strategy (%s, %d evals, %d capped):\n  %s\n"
        (Synth.fitness_to_string fitness)
        found.Synth.evals found.Synth.capped found.Synth.best_spec;
      Printf.printf
        "  score=%g work=%d messages=%d sigma=%d completed=%b\n"
        found.Synth.best_score e.Synth.e_work e.Synth.e_messages
        e.Synth.e_sigma e.Synth.e_completed;
      Printf.printf
        "replay:\n\
        \  doall run --algo %s --strategy '%s' -p %d -t %d -d %d --seed \
         %d%s --check\n"
        algo found.Synth.best_spec p t d seed (transport_flag transport);
      if found.Synth.violations <> [] then begin
        Printf.eprintf
          "doall: %d candidate(s) violated the invariant oracle:\n"
          (List.length found.Synth.violations);
        List.iter
          (fun (spec, v) -> Printf.eprintf "  %s\n    %s\n" spec v)
          found.Synth.violations;
        exit 1
      end
    in
    with_out_opt out run_search
  in
  Cmd.v (cmd_info "synth" ~doc)
    Term.(const run $ algo_arg $ p_arg $ t_arg $ d_arg $ seed_arg
          $ budget_arg $ population_arg $ fitness_arg $ space_arg
          $ max_time_arg $ out_arg $ wall_cap_arg $ quick_arg $ no_check_arg
          $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* Fuzz-case replay: one integer seed rebuilds the exact failing run the
   fuzz suite printed (dimensions, strategy, engine streams). *)

let fuzz_cmd =
  let doc = "Replay a fuzz-suite case from its reproducer seed." in
  let replay_arg =
    Arg.(required & opt (some int) None & info [ "replay" ] ~docv:"SEED"
           ~doc:"The reproducer seed printed by the fuzz suite.")
  in
  let makers =
    Fuzz_audit.core_makers
    @ [ ("awq-q4", fun () -> Doall_quorum.Algo_awq.make ~q:4 ()) ]
  in
  (* the labels to replay, every fuzzed one when none is named *)
  let labels_arg =
    let labels = function
      | None -> Ok Doall_adversary.Fuzz_gen.labels
      | Some l when List.mem_assoc l makers -> Ok [ l ]
      | Some l ->
        Error
          (Printf.sprintf "unknown fuzz label %S (known: %s)" l
             (String.concat ", " (List.map fst makers)))
    in
    checked "--algo" labels
      Arg.(value & opt (some string) None & info [ "algo" ] ~docv:"LABEL"
             ~doc:"Replay only this algorithm label (default: all fuzzed \
                   labels).")
  in
  let quorum_arg =
    Arg.(value & flag & info [ "quorum-safe" ]
           ~doc:"Force the quorum-safe case derivation (implied for the \
                 quorum labels).")
  in
  let quorum_labels = [ "awq-q4" ] in
  let run seed labels quorum_flag =
    let failed = ref false in
    List.iter
      (fun label ->
        let quorum_safe = quorum_flag || List.mem label quorum_labels in
        let { Doall_adversary.Fuzz_gen.p; t; d; transport; strategy } =
          Doall_adversary.Fuzz_gen.case ~seed ~quorum_safe
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
          Printf.printf "  ok: work=%d messages=%d sigma=%d\n" m.Metrics.work
            m.Metrics.messages m.Metrics.sigma
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
            label spec p t d seed (transport_flag transport))
      labels;
    if !failed then exit 1
  in
  Cmd.v (cmd_info "fuzz" ~doc)
    Term.(const run $ replay_arg $ labels_arg $ quorum_arg)

(* ------------------------------------------------------------------ *)
(* The experiment registry (lib/exp/catalog.ml), surfaced on the
   CLI. `list` and `describe` read the declarative metadata; `run`
   executes bodies through the lib/exp engine (pool parallelism, cell
   memo cache, --csv / --jsonl sinks). *)

(* the requested experiments, all of them when none is named *)
let exp_ids_arg =
  let find id =
    Option.to_result (Exp.find id)
      ~none:
        (Printf.sprintf "unknown experiment %S (known: %s; see doall exp \
                         list)" id
           (String.concat ", " (List.map (fun e -> e.Exp.id) (Exp.all ()))))
  in
  checked "ID"
    (function [] -> Ok (Exp.all ()) | ids -> each find ids)
    Arg.(value & pos_all string []
         & info [] ~docv:"ID"
             ~doc:"Experiment ids (see $(b,doall exp list)); default all.")

let exp_list_cmd =
  let doc = "List registered experiments with their one-line docs." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-5s %s\n" e.Exp.id (Exp.one_liner e))
      (Exp.all ())
  in
  Cmd.v (cmd_info "list" ~doc) Term.(const run $ const ())

let exp_describe_cmd =
  let doc = "Show an experiment's declarative spec (axes, tables, CSVs)." in
  let run es =
    List.iteri
      (fun i e ->
        if i > 0 then print_newline ();
        print_string (Exp.describe e))
      es
  in
  Cmd.v (cmd_info "describe" ~doc) Term.(const run $ exp_ids_arg)

let exp_run_cmd =
  let doc = "Run experiments through the declarative engine." in
  let csv_arg =
    checked "--csv" (optional out_dir)
      Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
             ~doc:"Also write every table as $(docv)/<exp>-<table>.csv \
                   (stable names; the directory is created if needed).")
  in
  let jsonl_arg =
    checked "--jsonl" (optional out_file)
      Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Append versioned table/row JSONL lines to $(docv) \
                   ('-' for stdout); schema in docs/OBSERVABILITY.md.")
  in
  let run es jobs csv jsonl progress =
    outcome @@ fun () ->
    Option.iter
      (fun dir -> try Sys.mkdir dir 0o755 with Sys_error _ -> ())
      csv;
    (* One pool shared by every requested experiment; each gets a fresh
       context (the memo cache is per-experiment by design). *)
    let pool = Doall_sim.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Doall_sim.Pool.shutdown pool)
      (fun () ->
        with_out_opt jsonl (fun jsonl ->
            List.iter
              (fun e ->
                Exp.run ~pool ?csv_dir:csv ?jsonl ~progress e;
                print_newline ())
              es))
  in
  Cmd.v (cmd_info "run" ~doc)
    Term.(const run $ exp_ids_arg $ jobs_arg $ csv_arg $ jsonl_arg
          $ progress_arg)

let exp_cmd =
  let doc = "Inspect and run the declarative experiment registry." in
  Cmd.group (cmd_info "exp" ~doc)
    [ exp_list_cmd; exp_describe_cmd; exp_run_cmd ]

let lemma32_cmd =
  let doc = "Numerically verify Lemma 3.2 (Appendix A) over a range of u." in
  let umax_arg =
    checked "--u-max" (at_least 2)
      Arg.(value & opt int 2000 & info [ "u-max" ] ~docv:"U"
             ~doc:"Largest u to scan.")
  in
  let run u_max =
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
  Cmd.v (cmd_info "lemma32" ~doc) Term.(const run $ umax_arg)

let contention_cmd =
  let doc = "Search for a low-contention permutation list and report it." in
  let n_arg =
    checked "-n" (in_range 2 8)
      Arg.(value & opt int 4 & info [ "n" ] ~docv:"N"
             ~doc:"Permutation size (2..8 for certified search).")
  in
  let run n seed =
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
      List.init n (fun i ->
          let d = i + 1 in
          (d, Doall_perms.Contention.d_contention_exact ~d
                cert.Doall_perms.Search.list))
    in
    print_endline "exact (d)-Cont profile (the PA work bound per Lemma 6.1):";
    List.iter (fun (d, c) -> Printf.printf "  d=%-2d  %d\n" d c) profile;
    let points =
      List.map (fun (d, c) -> (float_of_int d, float_of_int c)) profile
    in
    print_string
      (Plot.render ~width:40 ~height:10
         [ { Plot.label = "(d)-Cont(psi)"; points } ])
  in
  Cmd.v (cmd_info "contention" ~doc) Term.(const run $ n_arg $ seed_arg)

let main =
  let doc = "message-delay-sensitive Do-All algorithms (Kowalski-Shvartsman)" in
  Cmd.group (cmd_info "doall" ~doc)
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
  exit (Cmd.eval ~term_err:2 main)
