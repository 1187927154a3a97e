(** Runner-backed worst-case synthesis: {!Doall_adversary.Synth} wired
    to {!Runner.run_spec}.

    The search asks "what is the worst delivery/crash/fault schedule for
    this algorithm at this (p, t, d)?" — the question the paper answers
    with hand-built lower-bound constructions. Candidates run under the
    invariant oracle by default, so a strategy that drives an algorithm
    into an invariant violation is surfaced (and scores as an instant
    maximum) rather than crashing the search; capped runs are recorded
    as [e_completed = false] rows, never aborting a generation. *)

open Doall_adversary

val search :
  ?seed:int ->
  ?population:int ->
  ?elite:int ->
  ?fitness:Synth.fitness ->
  ?space:Strategy.space ->
  ?init:Strategy.t list ->
  ?check:bool ->
  ?max_time:int ->
  ?transport:Doall_sim.Config.transport ->
  ?wall_cap_s:float ->
  ?on_generation:(Synth.progress -> unit) ->
  ?pool:Doall_sim.Pool.t ->
  ?jobs:int ->
  algo:string ->
  p:int ->
  t:int ->
  d:int ->
  budget:int ->
  unit ->
  Synth.outcome
(** {!Synth.search} against [algo]. Each candidate is one
    {!Runner.run_spec} cell with [spec_adv = "strategy:" ^ to_spec], run
    under the invariant oracle unless [?check = false] (a violation is
    reported in [e_violation] instead of raising) and capped by
    [?max_time] (default: generous enough that every liveness-safe
    strategy completes at experiment scale, small enough that a
    livelocking candidate costs bounded time). [?space] defaults to
    [Quorum_safe] for [`Needs_quorum] algorithms and [Live] otherwise;
    [?init] defaults to strong hand-crafted openers (max-delay laggard,
    full loss, flaky churn with a fault storm, ...), so the search
    starts at least as bad as the chaos registry. [?seed] (default 0)
    drives both the
    search RNG and every candidate run, so a fixed seed makes the whole
    search — including the winning spec — bit-identical across repeated
    runs and across any [?jobs]. A channel [?transport] additionally
    opens the shared-channel contention dimension to the search
    ([~chan:true] to {!Synth.search}); point-to-point searches keep
    their pre-transport RNG sequence. On a channel the default space
    downgrades [Live]/[Full] to [In_model] — the channel carries its
    own loss model and the engine rejects message-fault policies on it
    — and passing a fault space explicitly raises [Invalid_argument]. *)
