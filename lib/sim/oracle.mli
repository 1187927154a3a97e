(** The always-on invariant oracle.

    The engine's safety properties are assumed everywhere — by the
    metrics, by the lower-bound adversaries, by the termination rule.
    Under hostile schedules (and especially under the beyond-the-model
    fault injection of docs/FAULTS.md: lossy networks, duplication,
    crash-recovery) "assumed" is not good enough. This checker restates
    them as executable predicates and verifies them {e on every tick}
    when the engine is created with [~check:true] (the CLI's [--check]):

    - {b monotone-global-done} — the set of globally performed tasks
      never shrinks (task execution is irrevocable, §2.4).
    - {b local-within-global} — no processor believes a task done that
      has not been performed somewhere: every local knowledge set is a
      subset of the engine's ground-truth ledger. Message loss,
      duplication and state resets may starve knowledge, never fabricate
      it.
    - {b survivor} — at least one processor is alive (the model's
      one-survivor rule, §2.2), even with crash-recovery in play.
    - {b halted-knows-all} — a halted processor locally knows every task
      is done (halting is a terminal claim of completion).
    - {b termination-complete} — when the run reports completion, every
      task has been performed and a live processor knows it
      (Definition 2.1).
    - {b step-by-crashed} — checked at each step site: a crashed
      processor takes no steps (crashes are infinite delays).

    A violated invariant raises {!Invariant_violation} with tick and pid
    context; a registered exception printer renders it readably. The
    checker reads engine state and never writes, so a checked run's
    metrics, trace and RNG streams are bit-identical to an unchecked
    one — pinned by [test/test_golden_grid.ml], which runs the full
    golden grid with the oracle on. *)

type violation = {
  time : int;
  pid : int option;  (** the offending processor, when one is implicated *)
  invariant : string;  (** short stable name, e.g. ["monotone-global-done"] *)
  detail : string;
}

exception Invariant_violation of violation

val pp_violation : Format.formatter -> violation -> unit

type view = {
  time : unit -> int;  (** the tick being audited *)
  p : int;
  t : int;
  global_done : Bitset.t;  (** ground truth: tasks performed anywhere *)
  local_done : int -> Bitset.t;  (** a processor's knowledge *)
  halted : int -> bool;
  live : unit -> int;
  finished : unit -> bool;
}
(** A read-only window onto the engine. Every field that changes during
    a run is read through a function, so the engine builds one view per
    run and audits every tick through it; {!check_step} needs none. *)

type t
(** Checker state (the previous tick's ledger and a tick count). *)

val create : unit -> t

val check_tick : t -> view -> unit
(** Verify every per-tick invariant for every pid; raises
    {!Invariant_violation} on the first failure. A passing check
    allocates nothing: the violation's texts are built only when an
    invariant fails. *)

val check_step : time:int -> pid:int -> alive:bool -> unit
(** Verify that [pid], about to take a step at [time], is alive
    ([alive] is its liveness bit). Allocates nothing when it passes. *)

val ticks_checked : t -> int
(** How many ticks this checker has audited — lets tests assert the
    oracle actually ran. *)
