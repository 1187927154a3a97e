(** Search-driven worst-case synthesis over the {!Strategy} DSL.

    A population evolutionary search (elitism + mutation + crossover,
    prior art [lib/perms/search.ml]) with a per-generation hill-climb of
    the incumbent best. Candidates are evaluated through a caller-
    supplied evaluator — {!Doall_core.Worstcase.search} wires in
    {!Doall_core.Runner.run_spec} — fanned across a {!Doall_sim.Pool}
    (embarrassingly parallel, results in submission order).

    Determinism: all search randomness comes from [seed] and is drawn in
    the submitting domain only; duplicate candidates are deduplicated by
    spec string; the best-so-far comparison breaks score ties by the
    lexicographically smaller spec. With a deterministic evaluator the
    outcome is bit-identical for every [jobs >= 1] and across repeated
    runs. ([Wall_per_work] fitness and [?wall_cap_s] read the wall
    clock and are the documented exceptions.) *)

type eval = {
  e_work : int;
  e_messages : int;
  e_sigma : int;
  e_completed : bool;  (** false = the run hit its time cap *)
  e_violation : string option;
      (** an oracle-audited invariant violation: scores as an instant
          maximum under every fitness *)
  e_wall : float;  (** machine-dependent; used only by [Wall_per_work] *)
}
(** What one candidate run measured. *)

type fitness =
  | Work  (** maximize total work W *)
  | Effort  (** maximize W + M *)
  | Sigma  (** maximize completion time *)
  | Cap_hits
      (** hunt liveness stalls: a capped (incomplete) run dominates
          every completed one; ties broken by partial work *)
  | Wall_per_work
      (** maximize wall-clock seconds per unit of work — a performance-
          adversary; machine-dependent, hence never deterministic *)

val fitness_to_string : fitness -> string
val fitness_of_string : string -> (fitness, string) result

type progress = {
  gen : int;
  evals : int;  (** evaluations spent so far *)
  best_score : float;
  best_spec : string;
  capped : int;  (** capped (incomplete) runs so far *)
  violations : int;
}
(** One generation's summary, also the best-so-far curve. *)

type outcome = {
  best : Strategy.t;
  best_spec : string;
  best_score : float;
  best_eval : eval;
  evals : int;
  capped : int;
  violations : (string * string) list;  (** (spec, violation) pairs *)
  history : progress list;  (** oldest first *)
}

val search :
  ?seed:int ->
  ?population:int ->
  ?elite:int ->
  ?space:Strategy.space ->
  ?init:Strategy.t list ->
  ?fitness:fitness ->
  ?chan:bool ->
  ?wall_cap_s:float ->
  ?on_generation:(progress -> unit) ->
  ?pool:Doall_sim.Pool.t ->
  ?jobs:int ->
  eval:(Strategy.t -> eval) ->
  p:int ->
  t:int ->
  d:int ->
  budget:int ->
  unit ->
  outcome
(** Spend up to [budget] unique evaluations looking for the worst
    strategy. [?init] seeds the first population (evaluated first, so
    even [budget < population] measures them); the rest is filled with
    {!Strategy.random} draws from [?space] (default [Live]). [?pool]
    reuses a caller-owned pool, else a transient one of [?jobs] domains
    is created. [?chan] (default false) is forwarded to
    {!Strategy.random} and {!Strategy.mutate}, letting the search draw
    shared-channel contention rules — set it when the evaluator runs
    candidates on a channel transport; leaving it off keeps every
    point-to-point search's RNG sequence (and thus its outcome)
    unchanged. [?wall_cap_s] stops launching new generations once the
    wall clock has run for that long (nondeterministic by nature —
    meant for CI smokes). [?on_generation] observes each generation's
    {!progress} as it completes. Raises [Invalid_argument] if
    [budget < 1]. *)
