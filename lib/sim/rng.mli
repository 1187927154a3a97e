(** Deterministic, splittable pseudo-random number generator.

    The simulation substrate must be fully reproducible from a single seed:
    the engine, every simulated processor, and every adversary each own an
    independent stream derived from the run seed. We implement xoshiro256**
    (Blackman & Vigna) seeded through SplitMix64, the standard seeding
    recipe. The global [Stdlib.Random] state is never touched, so
    simulations are insensitive to ambient randomness and can be replayed
    bit-for-bit. *)

type t
(** A mutable generator. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Two generators
    built from equal seeds produce identical streams. *)

val split : t -> t
(** [split rng] derives a new generator whose stream is statistically
    independent of the parent's subsequent output. Used to give each
    simulated processor its own stream so that adversarial scheduling
    cannot perturb the coins of unrelated processors. *)

val copy : t -> t
(** [copy rng] duplicates the full generator state. The copy and the
    original then produce identical streams. Needed by the omniscient
    adversary's one-step lookahead (see {!Engine}). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng n] is uniform in [\[0, n)]. Requires [n > 0]. Uses rejection
    sampling, so the distribution is exactly uniform. *)

val float : t -> float -> float
(** [float rng x] is uniform in [\[0, x)]. Its result is a boxed float
    (two words) wherever the call is not inlined, which is every call
    from another module in a build without cross-module inlining. *)

val chance : t -> float -> bool
(** [chance rng p] is [float rng 1.0 < p]: it draws the same bits and
    makes the same decision, but returns a [bool], so it allocates
    nothing. A coin of bias [p]: [true] with probability [p] for [p] in
    [\[0, 1\]], never for [p <= 0], always for [p >= 1]. *)

val bool : t -> bool
(** A fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle; uniform over all permutations. *)

val permutation : t -> int -> int array
(** [permutation rng n] is a uniformly random permutation of [0..n-1]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement rng k n] draws [k] distinct values from
    [0..n-1], in random order. Requires [0 <= k <= n]. *)
