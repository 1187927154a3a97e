(** The omniscient adaptive adversary of Section 2.2.

    An adversary controls three things, each per global time unit:
    which processors advance (arbitrary delays between local clock
    ticks), each message's delivery latency (up to the bound [d]), and
    crash failures (with the engine enforcing the model's one-survivor
    rule). Decisions are made {e online} against the live execution
    through an {!oracle} — a read-only window the engine exposes.

    The oracle's [would_perform] and [plan] queries implement
    omniscience: they clone a processor's state and run the clone in
    isolation (no message deliveries) to learn which tasks it is about to
    perform. For deterministic algorithms this equals full off-line
    knowledge. For randomized algorithms, one-step lookahead corresponds
    to the paper's Fig. 1 rule "delay a processor from the moment it
    {e selects} a task in [J_s]": the selection (the coin flip) is
    observable before the task completes, and the adversary reacts to
    it — it never predicts coins it could not have seen. *)

type oracle = {
  time : unit -> int;  (** current global time (hidden from processors) *)
  p : int;
  t : int;
  d : int;  (** this run's delay bound *)
  undone_count : unit -> int;  (** tasks not yet performed by anyone *)
  undone : unit -> int list;
  task_done : int -> bool;
  would_perform : int -> int option;
      (** next task [pid] would perform if stepped in isolation *)
  plan : pid:int -> horizon:int -> int list;
      (** distinct tasks [pid] would perform within [horizon] isolated
          steps — the set [J_s(i)] of the lower-bound proofs *)
  alive : int -> bool;
  halted : int -> bool;
  note : string -> unit;  (** annotate the trace *)
  rng : Rng.t;  (** adversary's private random stream *)
}

(** Verdict of a fault policy on one point-to-point message, decided at
    send time. Anything other than {!Deliver} steps outside the paper's
    reliable-channel model (§2.1) — see docs/FAULTS.md. *)
type fault_action =
  | Deliver  (** the paper's model: delayed but reliable *)
  | Drop  (** the message is lost; it still counts toward [M] *)
  | Duplicate of int
      (** deliver the message plus [n >= 1] extra copies; each extra
          copy's latency is drawn again from the adversary's
          {!delay_rule}, so copies may arrive out of order. Network-level
          replicas do not count toward [M]. *)
  | Reorder of int
      (** deliver, but add [j >= 0] extra latency units on top of the
          delay rule's pick (the sum is still clamped into
          [1 .. d]) — pushes the message behind later traffic. *)

type faults = oracle -> src:int -> dst:int -> fault_action
(** Invoked once per point-to-point send (after the delay rule). *)

type latency =
  | Variable  (** the engine consults [delay] once per point-to-point copy *)
  | Fixed of int  (** every copy takes this many units *)
  | Maximal  (** every copy takes the bound [d] *)
(** The latency profile {!make} derives from a {!delay_rule}, alongside
    the [delay] closure. It is authoritative: under [Fixed]/[Maximal]
    the engine takes the constant for every copy on every path and
    never calls [delay], so the two fields cannot disagree. A constant
    profile lets a fault- and restart-free run queue one shared
    broadcast record for all [p - 1] recipients of a multicast (the
    stream; see docs/PERFORMANCE.md). *)

type delay_rule =
  | Constant of int  (** every copy takes this many units *)
  | Bound  (** every copy takes the run's bound [d] *)
  | Per_copy of (oracle -> src:int -> dst:int -> int)
      (** asked once per point-to-point copy submitted now *)
(** The adversary's one decision about message latency (§2): a
    constant, or a pick per copy. The engine clamps every answer into
    [1 .. max 1 d]. Stock rules live in {!Doall_adversary.Delay}. *)

type channel_policy = {
  chan_name : string;  (** for display and registry names *)
  order : (oracle -> int array -> int array option) option;
      (** The {e ordered} adversary class (Klonowski–Kowalski–Mirek, see
          docs/MODEL.md): given this slot's contenders in ascending pid
          order, return a permutation of them — the channel grants the
          slot to the head and defers the rest to the next slot, so the
          adversary serializes the channel in an order of its choosing.
          Returning [None] declines to arbitrate {e this slot}: the
          contenders transmit simultaneously and collide (used by
          phase-structured strategies whose ordering rule is only active
          part of the time). A [None] field: never arbitrate. *)
  hold : (oracle -> src:int -> int) option;
      (** The {e delayed} adversary class: extra slots a transmission
          submitted now by [src] is held back before it first contends.
          The engine clamps the result into [0 .. d - 1], so the
          per-round delay cap never exceeds the run's delay bound.
          [None]: transmissions contend in their submission slot. *)
}
(** How an adversary exercises a shared-channel transport
    ({!Config.transport} = [Channel _]). Both fields are inert on
    point-to-point runs — the engine only consults them when the run's
    transport is the shared channel. *)

type t = {
  name : string;
  schedule : oracle -> bool array;
      (** invoked once per time unit; [true] = the processor takes a step.
          The engine keeps the model well-defined by forcing the
          lowest-pid live processor to step if the adversary delays
          everyone (time units are defined by the fastest processor). *)
  delay : oracle -> src:int -> dst:int -> int;
      (** the per-copy closure of the adversary's {!delay_rule}; the
          engine clamps the result into [1 .. max 1 d]. *)
  latency : latency;  (** the rule's profile, read first by the engine *)
  crash : oracle -> int list;
      (** pids to crash at this instant; the engine refuses to crash the
          last live processor. *)
  faults : faults option;
      (** [None] — the paper's reliable network; the engine's send path
          pays exactly one branch and no RNG stream moves (pinned by the
          golden grid). [Some f] — per-message drop / duplication /
          reordering beyond the model; see {!Doall_adversary.Fault}. *)
  restart : (oracle -> int list) option;
      (** [None] — the paper's model: crashes are permanent. [Some r] —
          pids to restart at this instant; a restarted processor comes
          back {e with reset local state} ([Algorithm.S.init] is re-run,
          so it has forgotten everything it knew). Restarting a live pid
          is a no-op. Applied at the start of each tick, before
          [crash]. *)
  channel : channel_policy option;
      (** [None] — on a shared-channel transport, contenders transmit
          simultaneously (colliding when two or more contend) and
          transmissions contend in their submission slot. [Some c] —
          the ordered/delayed adversary classes of
          {!type-channel_policy}. Ignored on point-to-point runs. *)
}

val fair : t
(** Everyone steps every unit; all messages arrive after one unit; no
    crashes. The best case against which adversarial runs are compared. *)

val uniform_delay : t
(** Fair scheduling, latency uniform in [1..d]. *)

val all_active : oracle -> bool array
(** Everyone steps: {!make}'s default schedule. *)

val make :
  name:string ->
  ?schedule:(oracle -> bool array) ->
  ?delay:delay_rule ->
  ?crash:(oracle -> int list) ->
  ?faults:faults ->
  ?restart:(oracle -> int list) ->
  ?channel:channel_policy ->
  unit ->
  t
(** The one constructor. [delay] yields both the [delay] closure and the
    [latency] profile. Omitted parts are the paper's best case: everyone
    steps, [Constant 1], no crashes, a reliable network, permanent
    crashes and no channel policy. Fault, restart and channel rule
    builders live in {!Doall_adversary.Fault}, {!Doall_adversary.Crash}
    and {!Doall_adversary.Chan}. *)

val closure : delay_rule -> oracle -> src:int -> dst:int -> int
(** The per-copy closure of a rule: what {!make} stores in [delay]. *)

val per_copy : t -> t
(** Test hook: the same adversary with its delay rule recast as
    [Per_copy] of the constant its profile names, which keeps a run
    off the stream without changing any copy's delay. *)
