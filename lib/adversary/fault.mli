(** Message-fault policies: lossy, duplicating, reordering networks.

    The paper's network is reliable — messages are delayed, never lost
    (Section 2.1). These policies deliberately step outside that model
    (docs/FAULTS.md) to probe algorithm robustness: each send is run
    through a policy that may drop it, duplicate it, or add latency
    beyond what the delay adversary chose (still clamped into [1..d]).

    Accounting: a dropped send still counts toward the message
    complexity [M] (the algorithm paid for it); duplicate replicas do
    not (the network, not the algorithm, created them). Drops and
    replicas are visible as the [net.drops] / [net.dups] probe counters.

    Randomized policies draw from the oracle's RNG, so fault decisions
    are deterministic in the run's seed like every other adversary
    choice. A verdict allocates nothing: a coin flip is {!Rng.chance},
    and [Duplicate] and [Reorder] verdicts are built in advance (for
    [Reorder], every extra latency up to 64). *)

open Doall_sim

type t = Adversary.faults

val none : t
(** Deliver everything — the reliable network, as a policy. *)

val drop : prob:float -> t
(** Drop each send independently with probability [prob]. *)

val duplicate : ?copies:int -> prob:float -> t
(** With probability [prob], deliver [copies] (default 1) extra replicas
    of the send, each with independently re-drawn latency. *)

val reorder : prob:float -> t
(** With probability [prob], add uniform extra latency (1..d) to the
    send — overtaking later traffic becomes likely, i.e. reordering. *)

val all : t list -> t
(** Chain policies: the first non-[Deliver] decision wins. *)

val of_spec : string -> (t * string, string) result
(** Parse a CLI fault spec: comma-separated [drop=P], [dup=PxN] (or
    [dup=P], one copy), [reorder=P], e.g.
    ["drop=0.3,dup=0.2x2,reorder=0.1"]. Returns the policy and a
    normalized human-readable name, or [Error] with a usage message.
    The name is canonical: [of_spec] on it returns the same name. *)
