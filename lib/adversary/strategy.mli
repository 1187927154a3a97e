(** Adversary strategies as data: a combinator DSL over scheduling,
    delay, crash/restart and message-fault rules.

    A strategy is a non-empty sequence of {e phases}; each phase names
    one rule per adversary dimension plus an optional duration, and the
    compiled adversary switches phases as global time crosses the
    cumulative phase boundaries (the last phase runs forever). Every
    rule is parameterized by small integer/float {e genes}, so whole
    strategies round-trip through a compact spec string
    ({!to_spec}/{!of_spec}, in the style of {!Fault.of_spec}) and can be
    mutated/crossed over by the search in {!Synth}.

    Strategies compile ({!into}) through {!Doall_sim.Adversary.make}
    to a plain {!Doall_sim.Adversary.t}. Its delay rule is the phase's
    own: a single phase with [D_const k] or [D_max] is a constant rule,
    and every other delay gene, or any phase change, is [Per_copy].
    Whether a run takes the shared-broadcast stream is then the
    engine's decision alone (docs/PERFORMANCE.md).

    Determinism: compilation is pure, every random rule draws from the
    run's oracle RNG, and {!random}/{!mutate}/{!crossover} draw only
    from the [rng] they are handed — a strategy spec plus a run seed
    replays bit-identically at any pool size. *)

open Doall_sim

(** Who advances each tick (see {!Schedule}). *)
type sched =
  | S_all
  | S_solo of int  (** only pid [k mod p] ever steps *)
  | S_rr of int  (** rotating window of this width *)
  | S_random of float  (** each pid steps with this probability *)
  | S_harmonic
  | S_laggard  (** {!Schedule.adaptive_laggard} *)

(** Per-message latency (see {!Delay}); the engine clamps into [1..d]. *)
type delay =
  | D_const of int
  | D_max
  | D_uniform
  | D_bimodal of float  (** slow fraction *)
  | D_stage of int  (** {!Delay.stage_batched} stage length *)
  | D_partition of int  (** soft partition at [p / k] *)
  | D_target of int  (** full delay to every pid with [pid mod k = 0] *)
  | D_churn of int * int  (** calm, storm *)

(** Crash (and, for [C_flaky], restart) rules. Every rule spares pid 0,
    the designated survivor — matching the chaos-registry convention,
    so liveness never rests on the engine's last-one-alive guard. Rules
    fire relative to their phase's start time. *)
type crash =
  | C_none
  | C_at of int * int * int
      (** [C_at (time, count, stride)]: at phase-relative [time], crash
          the [count] pids [1, 1+stride, 1+2*stride, ...] (those < p) *)
  | C_staggered of int  (** lowest live pid >= 1, every [k] ticks *)
  | C_poisson of float  (** per-pid crash probability per tick *)
  | C_flaky of int * int
      (** [up]/[down] churn cycle with restarts ({!Crash.flaky}) *)

(** Message faults (see {!Fault}); beyond the paper's model. *)
type fault =
  | F_drop of float
  | F_dup of float * int  (** prob, extra copies *)
  | F_reorder of float

(** Shared-channel contention rules (see {!Chan}); inert on
    point-to-point runs, so a strategy with a chan rule is still a valid
    adversary everywhere. [Ch_ordered k] picks an ordering-rule family
    member by [k] (0 lowest-first, 1 highest-first, 2
    defer-the-informed, else a rotating grant with offset [k]);
    [Ch_delayed cap] batches transmission releases to multiples of
    [cap] slots (engine-clamped to the delay bound); [Ch_both] combines
    the two. *)
type chan =
  | Ch_none
  | Ch_ordered of int
  | Ch_delayed of int
  | Ch_both of int * int  (** cap, ordering k *)

type phase = {
  sched : sched;
  delay : delay;
  crash : crash;
  faults : fault list;  (** chained first-decision-wins, as {!Fault.all} *)
  chan : chan;  (** shared-channel contention rule for this phase *)
  lasts : int option;
      (** phase duration in ticks; [None] = runs forever (final phase) *)
}

type t = phase list
(** Non-empty once normalized by {!make} (which every API entry point
    applies): at most 4 phases, every numeric gene clamped to its legal
    range (docs/FAULTS.md lists them; the genes an instance's p, t or d
    sizes go up to 2{^30}), probabilities quantized to 3 decimals (so [%g] printing
    round-trips exactly), every non-final phase given a duration and the
    final phase's duration dropped. *)

(** Search spaces: which strategies a search may generate.
    [Full] is unrestricted (may livelock honest algorithms — runs then
    hit the time cap). [Live] guarantees every [`Any_survivor] algorithm
    completes: pid 0 is never crashed, and whenever restarts (flaky) are
    present anywhere, starvation-prone schedules (solo, laggard) are
    replaced — the fuzz suite's liveness rule. [In_model] is [Live]
    further restricted to the paper's model: scheduling, delay and
    crash/restart adversity only, no message faults (loss, duplication
    and reordering are beyond the model). [Quorum_safe]
    additionally keeps a majority alive (minority [C_at] crashes in the
    first phase only), drops faults, and keeps every pid stepping
    infinitely often — what [`Needs_quorum] algorithms require. *)
type space = Full | Live | In_model | Quorum_safe

val space_to_string : space -> string
val space_of_string : string -> (space, string) result

val phase :
  ?sched:sched ->
  ?delay:delay ->
  ?crash:crash ->
  ?faults:fault list ->
  ?chan:chan ->
  ?lasts:int ->
  unit ->
  phase
(** Phase builder; defaults are fair: everyone steps, latency 1, no
    crashes, no faults, no contention rules. *)

val make : phase list -> t
(** Normalize (see {!t}). [make [] ] yields the fair single phase. *)

val usage : string
(** One-paragraph grammar description for CLI errors. *)

val to_spec : t -> string
(** Canonical spec string: phases joined by ['|'], fields by [';'], rule
    arguments by [':'] — e.g.
    ["sched=laggard;delay=max;fault=drop:0.5;for=64|sched=all;delay=const:1"]. *)

val of_spec : string -> (t, string) result
(** Parse a spec (inverse of {!to_spec} up to normalization):
    [of_spec s] followed by {!to_spec} is a fixpoint. *)

val into : t -> Adversary.t
(** Compile to a runnable adversary named ["strategy:" ^ to_spec]. Its
    delay rule is [Constant k] / [Bound] for a single phase with
    [D_const k] / [D_max], and [Per_copy] otherwise.
    Pure and stateless: safe to call once per run from worker domains
    ({!Doall_core.Runner}'s thread-safety contract). A one-phase
    strategy's schedule, delay, crash, fault and restart fields are its
    compiled rules themselves, with no per-call phase lookup (the delay
    and fault verdicts are asked once per point-to-point copy); a
    multi-phase one dispatches each call on the phase running at
    [o.time ()]. *)

(** {1 Search support} *)

val random :
  ?chan:bool -> rng:Rng.t -> space:space -> p:int -> t:int -> d:int -> unit ->
  t
(** A random strategy scaled to the instance (durations ~ [t], delays ~
    [d], window widths ~ [p]). [~chan:true] additionally draws
    shared-channel contention rules (for searches targeting a channel
    transport); the default [false] draws none and keeps the RNG
    sequence of point-to-point searches unchanged. *)

val mutate :
  ?chan:bool -> rng:Rng.t -> space:space -> p:int -> t:int -> d:int -> t -> t
(** One mutation step: mostly numeric-gene nudges, sometimes structural
    (replace a rule, add/drop a fault, split/drop a phase).
    [~chan:true] adds a replace-the-chan-rule move, as in {!random}. *)

val crossover : rng:Rng.t -> space:space -> p:int -> t -> t -> t
(** Field-wise uniform crossover of two parents, phase by phase. *)
