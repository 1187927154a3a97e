(** The contract between a Do-All algorithm and the simulation engine.

    An algorithm is a per-processor state machine. The engine drives it
    one {e local step} at a time — the unit in which work is charged
    (Definition 2.1). On each step a processor may perform at most one
    constant-time task, submit at most one broadcast (delivered to the
    other [p-1] processors after adversarial delays), and may halt, but
    only once it knows every task is done (Proposition 2.1 shows halting
    earlier breaks any algorithm).

    Message processing is free at step boundaries: the engine feeds all
    due messages through {!S.receive} before the step, matching the
    paper's convention that "it takes a unit of work to process multiple
    received messages" — the unit is the step that follows.

    [copy] must produce a deep copy (including any private generator
    state). The engine uses copies to implement the omniscient
    adversary's lookahead: cloning a processor and stepping the clone in
    isolation reveals which tasks the processor would perform if the
    adversary left it alone and withheld all messages — exactly the
    [J_s(i)] sets of the lower-bound constructions (Sections 3.1-3.2). *)

type 'msg step_result = {
  performed : int option;  (** task id executed during this step *)
  broadcast : 'msg option;  (** multicast submitted during this step *)
  unicasts : (int * 'msg) list;
      (** point-to-point sends [(dst, msg)] — used by protocols with
          directed replies, e.g. the quorum-replicated memory of
          {!Doall_quorum}; a multicast counts [p-1] messages, each
          unicast counts 1 *)
  halt : bool;  (** voluntary halt; legal only when all-done is known *)
  waiting : bool;
      (** this step only waited, and so will every later one until a
          message arrives: [true] promises that, until this processor's
          next {!S.receive}, every later step performs no task, sends
          nothing, does not halt and leaves the state unchanged (this
          step itself may still flush sends). The engine's lookahead
          stops its isolated clone here, because an isolated clone
          receives nothing; the real run ignores the flag and charges
          every waiting step as work (Definition 2.1). [false] promises
          nothing. *)
}

val nothing : 'msg step_result
(** A step that only advances internal bookkeeping. *)

val result :
  ?performed:int ->
  ?broadcast:'msg ->
  ?unicasts:(int * 'msg) list ->
  ?halt:bool ->
  ?waiting:bool ->
  unit ->
  'msg step_result
(** Labelled constructor; omitted fields default to "nothing". *)

module type S = sig
  val name : string

  type state
  type msg

  val init : Config.t -> pid:int -> state
  (** Fresh local state for processor [pid]. Note [Config.t] does not
      carry the delay bound [d]: algorithms cannot depend on it. *)

  val copy : state -> state
  (** Deep copy; the clone's future behaviour must equal the original's
      (same pending coins included). *)

  val receive : state -> src:int -> msg -> unit
  (** Merge one received message into local knowledge. Must be monotone:
      receiving can only add knowledge. *)

  val merge_homomorphic : (msg array -> msg) option
  (** The merge-homomorphism capability behind the engine's epoch-digest
      delivery fast path (docs/PERFORMANCE.md). [Some fold] declares
      that {!receive} is a {e source-independent monotone union}: for
      any state [st] and any batch [ms] of messages published in one
      engine step, delivering [fold ms] once leaves [st] exactly as
      delivering every element of [ms] would, in any order, under any
      [src] values — and [receive] never reads [src]. Under that
      contract the engine pre-folds all broadcasts of an epoch into one
      digest and applies it once per receiver (O(p + digest words) per
      tick instead of O(p²) payload applies); the digest is delivered
      with [src = -1], and a receiver's own epoch contribution may be
      included (it is a subset of its own knowledge, so union-only
      algorithms need no correction). Algorithms whose receive handler
      is not a pure union — coordinator rounds, view-dependent replies,
      anything that branches on [src] — must declare [None] and keep
      the per-record path.

      [fold] is only ever called with at least one message. Every
      element but the first was published at the same send step of one
      stream run; the first may instead be an earlier digest (a value
      [fold] returned for an earlier epoch), whose content every
      receiver of the new digest already holds. So receiving content
      the receiver already holds must change nothing: [receive st m]
      after [st] has absorbed [m] leaves [st] as it was. A union, as in
      PA and DA, qualifies. The earlier digest comes first so that a
      fold can record its result's lineage against it
      ({!Bitset.union_snapshots}).

      Digests are cumulative, and one delivery may span several
      epochs: a receiver that skipped steps gets the latest digest once
      for every epoch it missed. Delivering it must therefore leave
      [st] as delivering each of those epochs' messages would, which a
      union does. *)

  val step : state -> msg step_result
  (** One local step. Must eventually reach [is_done] in any fair
      execution where all tasks get performed and all messages arrive. *)

  val is_done : state -> bool
  (** The processor locally knows that every task has been performed. *)

  val done_tasks : state -> Bitset.t
  (** Local knowledge: the set of tasks this processor knows to be done.
      Capacity is the configured number of tasks. *)
end

type packed = (module S)

val name : packed -> string
