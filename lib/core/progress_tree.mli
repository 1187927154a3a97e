(** The q-ary boolean progress tree of Algorithm DA (Section 5.1.1).

    A complete q-ary tree with [q^h] leaves stored as a flat array:
    node 0 is the root and the children of interior node [v] are
    [q*v + 1 .. q*v + q]. Jobs are associated with the leaves; a node's
    bit means "every task in the subtree rooted here has been performed".
    The number of nodes is [(q^{h+1} - 1)/(q - 1)].

    When the number of jobs is not a power of [q], the tail leaves are
    {e dummies}: pre-marked done at initialization (the paper's padding
    argument), together with any interior node all of whose descendants
    are dummies, so that no processor ever spends steps on padding. *)

type t = private {
  q : int;
  h : int;  (** height; leaves have depth [h] *)
  leaves : int;  (** [q^h] *)
  size : int;  (** total nodes *)
  first_leaf : int;
  jobs : int;  (** real (non-dummy) leaves: [jobs <= leaves] *)
}

val shape : q:int -> jobs:int -> t
(** Smallest complete q-ary tree with at least [jobs] leaves. Requires
    [q >= 2], [jobs >= 1]. *)

val root : int
val is_leaf : t -> int -> bool
val child : t -> int -> int -> int
(** [child sh v j] is the [j]-th child ([0 <= j < q]) of interior [v]. *)

val depth : t -> int -> int
val job_of_leaf : t -> int -> int
(** The job at a leaf: leaf [first_leaf + j] holds job [j]; dummy leaves
    raise [Invalid_argument]. *)

val initial_marks : t -> Doall_sim.Bitset.t
(** A node bitset (capacity [size]) with every dummy leaf and every
    all-dummy interior node pre-marked. *)

val subtree_jobs : t -> int -> int list
(** Real jobs under node [v] (inclusive if [v] is itself a leaf). *)
