(** Contention of permutation lists (Section 4).

    For a list [psi = <pi_0, .., pi_{p-1}>] of permutations of [S_n] and a
    "completion order" [rho in S_n]:

    - [Cont(psi, rho) = sum_u lrm(rho^{-1} o pi_u)]  (contention w.r.t. rho)
    - [Cont(psi) = max_rho Cont(psi, rho)]           (contention)
    - [(d)-Cont(psi, rho)] and [(d)-Cont(psi)] replace lrm by d-lrm
      (Section 4.2, the paper's new notion).

    [Cont(psi)] bounds the primary (first-time, possibly concurrent) job
    executions of the oblivious algorithm ObliDo (Lemma 4.2), and
    [(d)-Cont(psi)] bounds the work of the PA algorithms against any
    d-adversary (Lemma 6.1). For any list, [n <= Cont(psi) <= n*p] when
    [psi] has [p] schedules (the paper states [n..n^2] for [p = n]).

    The exact maximum ranges over [n!] orders but is computed by a
    recurrence over the [2^n] subsets of [{0..n-1}], for [n <= 8];
    for larger [n] we report a certified {e lower} estimate
    obtained by hill-climbing over [rho] — safe for claims of the form
    "contention of this list is at least x" and for comparing lists. *)

val contention_wrt : Perm.t list -> rho:Perm.t -> int
(** [Cont(psi, rho)]. All permutations must share [rho]'s size. *)

val d_contention_wrt : d:int -> Perm.t list -> rho:Perm.t -> int
(** [(d)-Cont(psi, rho)]. Requires [d >= 1]. *)

val d_contention_profile_wrt : Perm.t list -> rho:Perm.t -> int array
(** Entry [d] (for [1 <= d <= n]) is [(d)-Cont(psi, rho)], all computed
    in one pass per schedule ({!Lrm.d_lrm_profile}). Entry 0 is 0. *)

val contention_exact : Perm.t list -> int
(** [Cont(psi)] exactly, by the subset recurrence below; requires size
    [<= 8]. [2^n * n * |psi|] work instead of [n! * n * |psi|]. *)

val d_contention_exact : d:int -> Perm.t list -> int
(** [(d)-Cont(psi)] the same way; requires [d >= 1] and size [<= 8]. *)

(** {2 The subset table}

    Place [rho]'s elements from the highest rank down; [r] is the set
    not yet placed. The next element [x] is a d-lrm of [rho^{-1} o pi_u]
    iff fewer than [d] of the elements before [x] in [pi_u] lie outside
    [r], so the number [gain(r, x)] of schedules where it is depends on
    [(r, x)] alone, and [(d)-Cont(psi) = f(full)] with
    [f(r) = max_{x in r} gain(r, x) + f(r \ {x})], [f(empty) = 0]. *)

type table
(** A list of schedules with its [d = 1] gains and [f], kept solved. *)

val table : int array array -> table
(** The table of a non-empty list of permutations of one size [<= 8].
    It owns the arrays: {!try_swap} mutates them. *)

val value : table -> int
(** [Cont] of the list the table holds. *)

val try_swap : table -> int -> int -> int -> unit
(** [try_swap t u i j] swaps positions [i] and [j] of schedule [u] and
    keeps the swap iff {!value} does not grow; otherwise the schedule
    and the table are restored exactly. *)

val d_contention_estimate :
  ?restarts:int ->
  ?samples:int ->
  rng:Doall_sim.Rng.t ->
  d:int ->
  Perm.t list ->
  int
(** Lower estimate of [(d)-Cont(psi)]: the best of [samples] random
    [rho]'s and [restarts] hill-climbing runs (adjacent transpositions
    plus arbitrary swaps, first-improvement). Always
    [>= (d)-Cont(psi, identity)] and [<= (d)-Cont(psi)]. *)

val bound_lemma_4_1 : int -> float
(** [3 n H_n], with [H_n = sum_{j=1..n} 1/j] — Lemma 4.1: a list of [n] permutations with contention at
    most this exists for every [n]. *)

val bound_theorem_4_4 : n:int -> p:int -> d:int -> float
(** [n ln n + 8 p d ln(e + n/d)] — Theorem 4.4 / Corollary 4.5: a list of
    [p] schedules with d-contention at most this exists, simultaneously
    for every [d >= 1]; random lists satisfy it with high probability. *)
