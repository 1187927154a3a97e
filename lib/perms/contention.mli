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

    The exact maximum ranges over [n!] orders and is only computed for
    small [n]; for larger [n] we report a certified {e lower} estimate
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
(** [Cont(psi)] by exhaustive maximization; requires size [<= 8]. Sums
    {!lrm_at} over one {!inverses} table, allocating nothing per order. *)

val d_contention_exact : d:int -> Perm.t list -> int
(** [(d)-Cont(psi)] the same way; requires [d >= 1] and size [<= 8]. *)

(** {2 Per-schedule columns}

    [Cont(psi) = max_r sum_u col_u.(r)] where the column [col_u] holds
    [lrm(rho_r^{-1} o pi_u)] for every order [rho_r in S_n]. A search that
    changes one schedule only needs that schedule's column again. *)

type inverses
(** Every [rho^{-1}], [rho in S_n], in one flat array. *)

val inverses : int -> inverses
(** The table for size [n], [0 <= n <= 8]: [n!] rows of [n] entries. *)

val orders : inverses -> int
(** [n!], the length of a column. *)

val lrm_at : inverses -> Perm.t -> int -> int
(** [lrm_at t pi r] is [lrm(rho_r^{-1} o pi)], entry [r] of [pi]'s
    column, for [0 <= r < orders t]; [pi] has the table's size. O(n),
    allocation-free. *)

val contention_estimate :
  ?restarts:int -> ?samples:int -> rng:Doall_sim.Rng.t -> Perm.t list -> int
(** Lower estimate of [Cont(psi)]: the best of [samples] random [rho]'s
    and [restarts] hill-climbing runs (adjacent transpositions plus
    arbitrary swaps, first-improvement). Always [>= Cont(psi, identity)]
    and [<= Cont(psi)]. *)

val d_contention_estimate :
  ?restarts:int ->
  ?samples:int ->
  rng:Doall_sim.Rng.t ->
  d:int ->
  Perm.t list ->
  int

val harmonic : int -> float
(** [H_n = sum_{j=1..n} 1/j]. *)

val bound_lemma_4_1 : int -> float
(** [3 n H_n] — Lemma 4.1: a list of [n] permutations with contention at
    most this exists for every [n]. *)

val bound_theorem_4_4 : n:int -> p:int -> d:int -> float
(** [n ln n + 8 p d ln(e + n/d)] — Theorem 4.4 / Corollary 4.5: a list of
    [p] schedules with d-contention at most this exists, simultaneously
    for every [d >= 1]; random lists satisfy it with high probability. *)
