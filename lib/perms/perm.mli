(** Permutations of [{0, .., n-1}].

    The paper works with the symmetric group [S_n] (1-based [\[n\]] there;
    0-based here throughout). A permutation doubles as a {e schedule}: the
    order in which a processor intends to perform [n] jobs
    (Section 4). *)

type t
(** Immutable. [apply pi i] is the element in position [i] — i.e. the
    paper's [pi(i+1)]. *)

val of_array : int array -> t
(** Validates that the argument is a permutation of [0..n-1]; raises
    [Invalid_argument] otherwise. The array is copied. *)

val of_array_unsafe : int array -> t
(** Trusts and takes ownership of the array. For hot loops in search. *)

val to_array : t -> int array
(** A fresh copy. *)

val size : t -> int
val apply : t -> int -> int
val identity : int -> t
val reverse : int -> t
(** [<n-1, n-2, .., 0>] — the schedule that minimizes left-to-right maxima
    against the identity (see the two-processor discussion opening
    Section 4). *)

val rotation : int -> int -> t
(** [rotation n k] maps position [i] to [(i + k) mod n]. *)

val compose : t -> t -> t
(** [compose a b] is [a o b]: position [i] holds [a(b(i))]. Sizes must
    agree. *)

val inverse : t -> t

val all : int -> t list
(** Every permutation of size [n], in lexicographic order. Intended for
    exhaustive contention computations; guarded to [n <= 9]. *)

val random : Doall_sim.Rng.t -> int -> t
(** Uniformly random permutation. *)

val pp : Format.formatter -> t -> unit
