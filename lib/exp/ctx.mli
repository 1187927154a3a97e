(** Execution context handed to an experiment body.

    One [Ctx.t] lives for one {!Exp.run} invocation. It owns

    - the {b cell memo cache}: every simulation cell is keyed by its
      {!Doall_core.Runner.run_spec} (plus the oracle flag and the
      fault-policy tag), so a cell evaluated for a table is never
      re-simulated for a plot or a second table of the same experiment;
    - the {b pool}: uncached cells are fanned across
      {!Doall_core.Runner.run_grid}, inheriting its bit-determinism
      contract — results are identical for any [jobs >= 1];
    - the {b output sinks}: tables and free text emitted through the
      context reach stdout, [--csv], and [--jsonl] uniformly (wired up
      by {!Exp.run}).

    Experiment bodies should do all their simulating through {!cell} /
    {!grid} and all their printing through {!emit} / {!print}; anything
    that bypasses the context (direct [Engine.run_packed] calls for
    non-registry algorithm variants) still works but is neither memoized
    nor parallelized. *)

open Doall_sim
open Doall_core

type t

type faults = string * Adversary.faults
(** A fault-policy overlay with a stable tag naming it (e.g.
    ["drop=0.50"]). The tag is part of the memo key, so two policies
    with the same tag are assumed interchangeable. *)

val make :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?progress:bool ->
  label:string ->
  on_table:(name:string -> Doall_analysis.Table.t -> unit) ->
  on_text:(string -> unit) ->
  unit ->
  t
(** Used by {!Exp.run}; [label] prefixes progress lines. When neither
    [?pool] nor [?jobs] is given, each uncached grid runs on a transient
    default-sized pool. *)

(** {1 Simulation} *)

val cell : t -> ?check:bool -> ?faults:faults -> Runner.run_spec -> Runner.result
(** One memoized cell, simulated in the calling domain on a miss. *)

val grid :
  t ->
  ?check:bool ->
  ?faults:faults ->
  Runner.run_spec list ->
  Runner.result list
(** Memoized batch: cells not in the cache (deduplicated) run through
    {!Doall_core.Runner.run_grid} on the context's pool, with a live
    progress meter when enabled; results come back in argument order.
    Raises {!Doall_core.Runner.Grid_incomplete} like the runner does. *)

val mean_work :
  t ->
  ?check:bool ->
  ?faults:faults ->
  ?transport:Config.transport ->
  seeds:int list ->
  algo:string ->
  adv:string ->
  p:int ->
  t:int ->
  d:int ->
  unit ->
  float
(** Seed-averaged work through {!grid}, folded by
    {!Doall_analysis.Stats.mean}: the per-seed cells are memoized
    individually, so a later call over the same cells simulates
    nothing. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ctx f xs] applies [f] to every element of [xs] on the
    context's pool (a transient one when it has none, sized as for
    {!grid}) and returns the results in the order of [xs], so what an
    experiment prints is the same for any [jobs]. For pure work outside
    the cell memo, such as contention estimates that each seed their
    own [Rng]; [f] must keep {!Doall_sim.Pool}'s thread-safety
    contract. *)

val cells_simulated : t -> int
(** Number of cache misses so far — the count of simulations this
    context actually ran (the dedup tests pin it). *)

(** {1 Output} *)

val emit : t -> ?name:string -> Doall_analysis.Table.t -> unit
(** Route one finished table to the sinks. [name] is the stable
    per-experiment table name used for [<exp-id>-<name>.csv]; it
    defaults to ["t1"], ["t2"], … in emission order. *)

val print : t -> string -> unit
(** Route free text (plots, trace renderings, prose results) to the
    text sink verbatim. *)
