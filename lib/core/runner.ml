open Doall_sim
open Doall_adversary

type algo_spec = {
  algo_name : string;
  doc : string;
  make : unit -> Algorithm.packed;
  deterministic : bool;
  liveness : [ `Any_survivor | `Needs_quorum ];
}

type adv_spec = {
  adv_name : string;
  adv_doc : string;
  instantiate : p:int -> t:int -> d:int -> Adversary.t;
}

let da_specs =
  List.map
    (fun q ->
      {
        algo_name = Printf.sprintf "da-q%d" q;
        doc =
          Printf.sprintf
            "deterministic progress-tree algorithm DA(%d) (Section 5)" q;
        make = (fun () -> Algo_da.make ~q ());
        deterministic = true;
        liveness = `Any_survivor;
      })
    [ 2; 3; 4; 5; 6; 7; 8 ]

let algorithms =
  [
    {
      algo_name = "trivial";
      doc = "oblivious baseline: every processor performs every task";
      make = (fun () -> Algo_trivial.make ());
      deterministic = true;
      liveness = `Any_survivor;
    };
    {
      algo_name = "paran1";
      doc = "randomized PA: one random permutation per processor (Sec. 6)";
      make = (fun () -> Algo_pa.make_ran1 ());
      deterministic = false;
      liveness = `Any_survivor;
    };
    {
      algo_name = "paran2";
      doc = "randomized PA: uniform random next task (Sec. 6)";
      make = (fun () -> Algo_pa.make_ran2 ());
      deterministic = false;
      liveness = `Any_survivor;
    };
    {
      algo_name = "padet";
      doc = "deterministic PA with a fixed low-d-contention list (Sec. 6)";
      make = (fun () -> Algo_pa.make_det ());
      deterministic = true;
      liveness = `Any_survivor;
    };
    {
      algo_name = "coord";
      doc =
        "synchronous-style rotating-coordinator baseline (cf. [10]); \
         timeouts assume a fast network";
      make = (fun () -> Algo_coord.make ());
      deterministic = true;
      liveness = `Any_survivor;
    };
  ]
  @ da_specs

(* A registry row built through the strategy DSL: one phase sized from
   the instance, compiled by [Strategy.into] and renamed to its registry
   name. The five entries the DSL cannot express stay code: the stateful
   omniscient stage constructions, a crash rule that may take pid 0, and
   a rotating channel grant at offset 1 ([Ch_ordered k] reaches a rotor
   only for k mod 4 = 3). *)
let strategy_row adv_name adv_doc phase =
  {
    adv_name;
    adv_doc;
    instantiate =
      (fun ~p ~t ~d ->
        { (Strategy.into (Strategy.make [ phase ~p ~t ~d ])) with
          Adversary.name = adv_name });
  }

let adversaries =
  let open Strategy in
  let flaky t = C_flaky (max 4 (t / 4), max 2 (t / 8)) in
  let chan_cap d = max 2 (min d 4) in
  [
    strategy_row "fair" "everyone steps, messages arrive in one unit"
      (fun ~p:_ ~t:_ ~d:_ -> phase ());
    strategy_row "max-delay" "fair stepping, every message takes the full d"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~delay:D_max ());
    strategy_row "uniform-delay" "fair stepping, latency uniform on 1..d"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~delay:D_uniform ());
    strategy_row "batch"
      "deliveries batched at stage boundaries (length min(d, t/6))"
      (fun ~p:_ ~t ~d -> phase ~delay:(D_stage (max 1 (min d (t / 6)))) ());
    strategy_row "solo" "only processor 0 ever advances"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~sched:(S_solo 0) ());
    strategy_row "round-robin" "a rotating quarter of the processors advances"
      (fun ~p ~t:_ ~d:_ -> phase ~sched:(S_rr (max 1 (p / 4))) ());
    strategy_row "harmonic"
      "processor i runs (i+1) times slower than processor 0"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~sched:S_harmonic ());
    strategy_row "random-half"
      "each processor steps with probability 1/2; uniform delays"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~sched:(S_random 0.5) ~delay:D_uniform ());
    strategy_row "laggard"
      "omniscient: stalls processors about to perform fresh tasks"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~sched:S_laggard ~delay:D_max ());
    {
      adv_name = "lb-det";
      adv_doc = "the Theorem 3.1 stage adversary (deterministic algorithms)";
      instantiate = (fun ~p:_ ~t:_ ~d:_ -> Lb_deterministic.create ());
    };
    {
      adv_name = "lb-rand";
      adv_doc = "the Theorem 3.4 online adversary, coverage J_s selection";
      instantiate = (fun ~p:_ ~t:_ ~d:_ -> Lb_randomized.create ());
    };
    {
      adv_name = "lb-rand-random";
      adv_doc = "the Theorem 3.4 online adversary, random J_s (for PaRan2)";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ -> Lb_randomized.create ~selection:`Random ());
    };
    strategy_row "partition"
      "two sites: fast within, full-d latency across the cut"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~delay:(D_partition 2) ());
    strategy_row "churn" "alternating calm (fast) and storm (full-d) periods"
      (fun ~p:_ ~t ~d:_ ->
        let k = max 2 (t / 8) in
        phase ~delay:(D_churn (k, k)) ());
    strategy_row "stragglers"
      "a third of the processors sit behind a full-d link"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~delay:(D_target 3) ());
    strategy_row "crash-half" "half the processors crash a third of the way in"
      (fun ~p ~t ~d:_ -> phase ~crash:(C_at (max 1 (t / 3), p / 2, 2)) ());
    strategy_row "crash-all-but-one" "everyone except processor 0 crashes early"
      (fun ~p ~t ~d:_ -> phase ~crash:(C_at (max 1 (t / 8), p - 1, 1)) ());
    {
      adv_name = "crash-staggered";
      adv_doc = "the lowest live pid crashes at regular intervals";
      instantiate =
        (fun ~p ~t ~d:_ ->
          Adversary.make ~name:"crash-staggered"
            ~crash:(Crash.staggered ~every:(max 1 (t / max 1 p)))
            ());
    };
    (* -- chaos adversaries: beyond the paper's model (docs/FAULTS.md).
       Every one keeps pid 0 permanently up, so each registry algorithm
       stays live via its solo fallback even at 100% message loss. -- *)
    strategy_row "lossy-half"
      "uniform delays and every message dropped with prob 1/2"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~delay:D_uniform ~faults:[ F_drop 0.5 ] ());
    strategy_row "lossy-all" "100% message loss: algorithms must finish solo"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~faults:[ F_drop 1.0 ] ());
    strategy_row "dup-storm" "uniform delays; heavy duplication and reordering"
      (fun ~p:_ ~t:_ ~d:_ ->
        phase ~delay:D_uniform ~faults:[ F_dup (0.5, 2); F_reorder 0.5 ] ());
    strategy_row "flaky-restart"
      "processors cycle crash/recover (reset state); pid 0 stays up"
      (fun ~p:_ ~t ~d:_ -> phase ~delay:D_uniform ~crash:(flaky t) ());
    strategy_row "chaos"
      "drops, duplicates, reorders and flaky restarts, all at once"
      (fun ~p:_ ~t ~d:_ ->
        phase ~delay:D_uniform ~crash:(flaky t)
          ~faults:[ F_drop 0.3; F_dup (0.2, 2); F_reorder 0.3 ]
          ());
    (* -- shared-channel contention adversaries (docs/MODEL.md): the
       ordered and delayed classes over a multiple-access channel. Fair
       stepping and latency 1, so on a point-to-point run they all
       degenerate to [fair] (contention policies are inert there). -- *)
    strategy_row "chan-ordered"
      "shared channel: serialize contenders lowest pid first"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~chan:(Ch_ordered 0) ());
    strategy_row "chan-ordered-high"
      "shared channel: serialize contenders highest pid first"
      (fun ~p:_ ~t:_ ~d:_ -> phase ~chan:(Ch_ordered 1) ());
    {
      adv_name = "chan-rotor";
      adv_doc = "shared channel: rotating grant across contenders";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Adversary.make ~name:"chan-rotor"
            ~channel:
              { Adversary.chan_name = "rotor"; order = Some (Chan.rotor 1);
                hold = None }
            ());
    };
    strategy_row "chan-delayed"
      "shared channel: releases batched every min(d, 4) slots, so \
       submissions pile up and collide"
      (fun ~p:_ ~t:_ ~d -> phase ~chan:(Ch_delayed (chan_cap d)) ());
    strategy_row "chan-delayed-ordered"
      "shared channel: batched releases, then informed contenders \
       deferred behind redundant ones"
      (fun ~p:_ ~t:_ ~d -> phase ~chan:(Ch_both (chan_cap d, 2)) ());
  ]

let known_names to_name specs =
  String.concat ", " (List.map to_name specs)

(* Extension point: downstream libraries (e.g. doall.quorum) contribute
   algorithms without creating a dependency cycle. The ref is guarded by
   a mutex because [run_grid] workers call [find_algo] from other
   domains; registration itself should still happen before grids are
   launched (see runner.mli). *)
let registered : algo_spec list ref = ref []
let registered_mutex = Mutex.create ()

let register_algorithm spec =
  if List.exists (fun s -> s.algo_name = spec.algo_name) algorithms then
    invalid_arg
      (Printf.sprintf "Runner.register_algorithm: %S is a built-in name"
         spec.algo_name);
  Mutex.protect registered_mutex (fun () ->
      registered :=
        spec :: List.filter (fun s -> s.algo_name <> spec.algo_name) !registered)

let all_algorithms () =
  algorithms @ Mutex.protect registered_mutex (fun () -> List.rev !registered)

let find_algo name =
  match List.find_opt (fun s -> s.algo_name = name) (all_algorithms ()) with
  | Some s -> s
  | None ->
    failwith
      (Printf.sprintf "unknown algorithm %S (known: %s)" name
         (known_names (fun s -> s.algo_name) (all_algorithms ())))

type result = {
  metrics : Metrics.t;
  algo : string;
  adv : string;
  seed : int;
  wall_s : float;
  obs : Probe.snapshot option;
  spans : Span.snapshot option;
}

let strategy_prefix = "strategy:"

let find_adv name =
  if String.starts_with ~prefix:strategy_prefix name then begin
    (* dynamic adversary: a strategy-DSL spec compiled on instantiation
       (docs/FAULTS.md). Parsed here so a bad spec fails at lookup like
       an unknown name; [Strategy.into] is pure, so instantiating per
       run from worker domains honors the thread-safety contract. *)
    let plen = String.length strategy_prefix in
    let spec = String.sub name plen (String.length name - plen) in
    match Doall_adversary.Strategy.of_spec spec with
    | Ok strategy ->
      {
        adv_name = name;
        adv_doc = "compiled from a strategy-DSL spec (docs/FAULTS.md)";
        instantiate =
          (fun ~p:_ ~t:_ ~d:_ -> Doall_adversary.Strategy.into strategy);
      }
    | Error msg ->
      failwith (Printf.sprintf "bad strategy spec %S: %s" spec msg)
  end
  else
    match List.find_opt (fun s -> s.adv_name = name) adversaries with
    | Some s -> s
    | None ->
      failwith
        (Printf.sprintf
           "unknown adversary %S (known: %s; or strategy:<spec>)" name
           (known_names (fun s -> s.adv_name) adversaries))

let snapshot_of probe =
  match probe with
  | Some probe when Probe.enabled probe -> Some (Probe.snapshot probe)
  | Some _ | None -> None

(* [?profile:true] gives the engine a fresh enabled profiler; its final
   snapshot lands in [result.spans]. Like probes, spans are per-run
   state, never shared across grid cells or domains. *)
let spans_of = function
  | Some sp -> Some (Span.snapshot sp)
  | None -> None

let make_spans profile =
  if profile then Some (Span.create ()) else None

type run_spec = {
  spec_algo : string;
  spec_adv : string;
  p : int;
  t : int;
  d : int;
  seed : int;
  transport : Config.transport;
}

let spec ?(seed = 0) ?(transport = Config.Ptp) ~algo ~adv ~p ~t ~d () =
  { spec_algo = algo; spec_adv = adv; p; t; d; seed; transport }

(* point-to-point names carry no transport suffix, keeping every
   pre-transport golden pin (and the exp memo keys derived from specs)
   byte-identical *)
let transport_suffix = function
  | Config.Ptp -> ""
  | tr -> "@" ^ Config.transport_to_string tr

let spec_name s =
  Printf.sprintf "%s/%s/p%d/t%d/d%d/seed%d%s" s.spec_algo s.spec_adv s.p s.t
    s.d s.seed
    (transport_suffix s.transport)

let pp_spec ppf s =
  Format.fprintf ppf "%s/%s/p=%d/t=%d/d=%d/seed=%d%s" s.spec_algo s.spec_adv
    s.p s.t s.d s.seed
    (transport_suffix s.transport)

exception Run_timeout of { spec : run_spec; metrics : Metrics.t }

let () =
  Printexc.register_printer (function
    | Run_timeout { spec; metrics } ->
      Some
        (Format.asprintf
           "Runner.Run_timeout: %a hit the time cap at time %d (partial \
            metrics: work=%d, messages=%d, executions=%d)"
           pp_spec spec metrics.Metrics.sigma metrics.Metrics.work
           metrics.Metrics.messages metrics.Metrics.executions)
    | _ -> None)

(* Optional beyond-the-model overlay: [faults] replaces the adversary's
   fault policy for this run ([--faults] on the CLI). *)
let overlay ?faults adversary =
  match faults with
  | None -> adversary
  | Some f -> { adversary with Adversary.faults = Some f }

(* Process-wide count of engine runs started through the runner — atomic
   because grid cells execute in pool worker domains. The experiment
   subsystem's dedup tests pin deltas of this counter to prove each cell
   simulates exactly once. *)
let sims = Atomic.make 0
let sim_count () = Atomic.get sims

(* The body of every single run: count it, resolve the names, overlay
   [faults], attach the spans, and time [engine] — [Engine.run_packed]
   or [Engine.run_traced]; [metrics] picks the metrics out of its
   result, which is returned too. *)
let timed ~record_trace ~seed ?max_time ?probe ~profile ?check ?faults
    ~transport ~algo ~adv ~p ~t ~d engine metrics =
  Atomic.incr sims;
  let aspec = find_algo algo in
  let vspec = find_adv adv in
  let cfg = Config.make ~seed ~record_trace ~transport ~p ~t () in
  let adversary = overlay ?faults (vspec.instantiate ~p ~t ~d) in
  let sp = make_spans profile in
  let t0 = Unix.gettimeofday () in
  let out =
    engine (aspec.make ()) cfg ~d ~adversary ?max_time ?probe ?spans:sp ?check
      ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  ( {
      metrics = metrics out; algo; adv; seed; wall_s;
      obs = snapshot_of probe;
      spans = spans_of sp;
    },
    out )

(* Like [run] but reports a capped run through [metrics.completed]
   instead of raising, so [run_grid] can aggregate timeouts. *)
let run_unchecked ?(seed = 0) ?max_time ?probe ?(profile = false) ?check
    ?faults ?(transport = Config.Ptp) ~algo ~adv ~p ~t ~d () =
  fst
    (timed ~record_trace:false ~seed ?max_time ?probe ~profile ?check ?faults
       ~transport ~algo ~adv ~p ~t ~d Engine.run_packed Fun.id)

let run ?seed ?max_time ?probe ?profile ?check ?faults ?transport ~algo ~adv
    ~p ~t ~d () =
  let r =
    run_unchecked ?seed ?max_time ?probe ?profile ?check ?faults ?transport
      ~algo ~adv ~p ~t ~d ()
  in
  if not r.metrics.Metrics.completed then
    raise
      (Run_timeout
         {
           spec = spec ~seed:r.seed ?transport ~algo ~adv ~p ~t ~d ();
           metrics = r.metrics;
         });
  r

let run_traced ?(seed = 0) ?max_time ?probe ?(profile = false) ?check ?faults
    ?(transport = Config.Ptp) ~algo ~adv ~p ~t ~d () =
  let r, (_, trace) =
    timed ~record_trace:true ~seed ?max_time ?probe ~profile ?check ?faults
      ~transport ~algo ~adv ~p ~t ~d Engine.run_traced fst
  in
  (r, trace)

(* ------------------------------------------------------------------ *)
(* Parallel grids.                                                     *)

exception Grid_incomplete of run_spec list

let pp_grid_incomplete ppf specs =
  let n = List.length specs in
  Format.fprintf ppf
    "Runner.Grid_incomplete: %d cell(s) hit the time cap without \
     completing:"
    n;
  (* cap the listing so a mostly-capped 252-run grid stays readable *)
  let shown = 12 in
  List.iteri
    (fun i s -> if i < shown then Format.fprintf ppf "@\n  %a" pp_spec s)
    specs;
  if n > shown then Format.fprintf ppf "@\n  ... and %d more" (n - shown)

let () =
  Printexc.register_printer (function
    | Grid_incomplete specs ->
      Some (Format.asprintf "%a" pp_grid_incomplete specs)
    | _ -> None)

let grid ?(seeds = [ 0 ]) ?transport ~algos ~advs ~points () =
  List.concat_map
    (fun algo ->
      List.concat_map
        (fun adv ->
          List.concat_map
            (fun (p, t, d) ->
              List.map
                (fun seed -> spec ~seed ?transport ~algo ~adv ~p ~t ~d ())
                seeds)
            points)
        advs)
    algos

let run_spec ?max_time ?probe ?profile ?check ?faults s =
  run_unchecked ~seed:s.seed ?max_time ?probe ?profile ?check ?faults
    ~transport:s.transport ~algo:s.spec_algo ~adv:s.spec_adv ~p:s.p ~t:s.t
    ~d:s.d ()

let run_grid ?jobs ?pool ?max_time ?(probes = false) ?(profile = false)
    ?check ?faults ?on_cell specs =
  (* Resolve names in the submitting domain so an unknown algorithm or
     adversary fails fast, before any domain is spawned. *)
  List.iter
    (fun s ->
      ignore (find_algo s.spec_algo);
      ignore (find_adv s.spec_adv))
    specs;
  (* [on_cell] fires in completion order, from whichever worker domain
     finished the cell; a private mutex serializes invocations and the
     finished-count increment. *)
  let notify =
    match on_cell with
    | None -> fun _ -> ()
    | Some cb ->
      let m = Mutex.create () in
      let finished = ref 0 in
      let total = List.length specs in
      fun r ->
        Mutex.protect m (fun () ->
            incr finished;
            cb ~finished:!finished ~total r)
  in
  let one s =
    let probe = if probes then Some (Probe.create ()) else None in
    let r = run_spec ?max_time ?probe ~profile ?check ?faults s in
    notify r;
    if r.metrics.Metrics.completed then Ok r else Error s
  in
  let results =
    match pool with
    | Some pool -> Pool.map pool one specs
    | None -> Pool.run ?jobs one specs
  in
  match List.filter_map (function Error s -> Some s | Ok _ -> None) results with
  | [] -> List.map (function Ok r -> r | Error _ -> assert false) results
  | timeouts -> raise (Grid_incomplete timeouts)
