(** Quorum systems.

    The alternative route to asynchronous Do-All discussed in Section 1.1
    of the paper (following [16,19]) emulates a shared-memory algorithm
    over memory replicated at all processors, with operations completing
    once a {e quorum} acknowledges. The emulation here uses the majority
    system: any set of more than half the processors is a quorum, so two
    quorums always intersect.

    The decisive weakness the paper points out — "when processor failures
    damage quorum systems, the work of such algorithms becomes quadratic,
    even if message latency is constant" — is captured by {!satisfied}:
    once no quorum can be assembled from responsive processors, no
    operation ever completes. *)

type t

val majority : p:int -> t
(** Threshold [floor(p/2) + 1] — the standard majority system. *)

val satisfied : t -> Doall_sim.Bitset.t -> bool
(** [satisfied q responders]: does the responder set contain a quorum?
    The bitset's capacity must be the system's [p]. *)
