(** Algorithm DA(q) (Section 5): the message-passing re-interpretation of
    the Anderson-Woll shared-memory algorithm.

    Every processor keeps a {e local replica} of the q-ary progress tree;
    where the shared-memory algorithm writes a node, DA multicasts its
    whole replica, and where it reads, DA consults the replica (updated
    whenever a multicast arrives). The traversal is the recursive
    post-order search [Dowork] of Fig. 3, driven at interior depth [m] by
    the permutation [pi_{x\[m\]}] chosen by the [m]-th q-ary digit of the
    processor id; we realize the recursion as an explicit frame stack so
    that each simulated local step does constant bookkeeping:

    - one step per child-pointer check (skipping a known-done subtree),
    - one step per descent into a subtree,
    - one step per task performed at a leaf (a leaf's job of [k] tasks
      takes [k] consecutive steps),
    - one step per node completion, which is also when the processor
      multicasts (leaf completions and interior completions, exactly the
      broadcast points of Fig. 3).

    With [p <= t], tasks are pre-grouped into [min(p,t)] jobs
    (Section 5.1.3). Work is [O(t p^e + p min(t,d) ceil(t/d)^e)] for a
    suitable constant [q = q(e)] (Theorems 5.4 and 5.5), and message
    complexity is [O(p W)] (Theorem 5.6).

    The permutation list [psi] defaults to a certified low-contention
    list from {!Doall_perms.Search.certified} (cached per [q]).

    Every [init] (a run's start and every restart) takes its replica as a
    copy-on-write {!Doall_sim.Bitset.copy} of one
    {!Progress_tree.initial_marks} tree, built once per domain and shape
    [(q, jobs)]; a pid's first write to a chunk copies that chunk, so the
    shared tree is never written. *)

val make :
  ?q:int -> ?psi:Doall_perms.Perm.t list -> unit -> Doall_sim.Algorithm.packed
(** [make ~q ()] with [2 <= q <= 8] for the default certified list; an
    explicit [psi] must contain exactly [q] permutations of size [q]
    (any [q >= 2] is then accepted). Default [q = 4]. *)

type state
(** One processor's local state. *)

val make_open :
  ?q:int ->
  ?psi:Doall_perms.Perm.t list ->
  unit ->
  (module Doall_sim.Algorithm.S with type state = state)
(** {!make} with the state type visible, so a caller can read a
    processor's replica with {!tree}; [make] packs this module. *)

val tree : state -> Doall_sim.Bitset.t
(** The processor's progress-tree replica. Read it; writing it changes
    the run. *)

val default_psi : q:int -> Doall_perms.Perm.t list
(** The cached certified list used by [make] for this [q]. *)
