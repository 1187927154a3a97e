(** Generators for lists of schedules.

    The algorithm families are parameterized by lists of permutations:
    DA(q) needs [q] permutations of [S_q] (tiny, quality-critical), the
    PA family needs [p] permutations of [S_n] with [n = min(p, t)]
    (large; random lists have low d-contention with high probability by
    Theorem 4.4, which is the paper's own construction for PaDet via the
    probabilistic method). *)

val random_list : rng:Doall_sim.Rng.t -> n:int -> count:int -> Perm.t list
(** [count] independent uniformly random permutations of size [n]. *)

val identity_list : n:int -> count:int -> Perm.t list
(** All-identity — the worst list (contention [count * n]); used as an
    adversarial baseline in tests and ablations. *)

val seeded_list : seed:int -> n:int -> count:int -> Perm.t list
(** Deterministic: the random list generated from a fixed seed. This is
    how PaDet instantiates Corollary 4.5 reproducibly. *)
