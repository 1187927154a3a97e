(** Searching for low-contention permutation lists.

    Lemma 4.1 guarantees, for every [n], a list of [n] permutations with
    [Cont <= 3 n H_n]; the paper obtains it by exhaustive search
    ("a constant number of operations on integers... of order (n!)^n").
    We provide:

    - {!exhaustive}: the true optimum, feasible for [n <= 3] only;
    - {!certified}: randomized search with {e exact} contention evaluation
      ([n <= 8]) — repeatedly sample and locally improve lists, return the
      first whose exact contention meets the [3 n H_n] bound, together
      with that contention. Random lists meet the bound with high
      probability (contention [O(n log n)] w.h.p., Section 1.1), so this
      terminates quickly in practice; the bound check makes the result a
      certificate, not a hope.

    DA(q) uses [certified] at construction time for its list [psi]. *)

type certificate = { list : Perm.t list; contention : int; bound : float }

val exhaustive : int -> certificate
(** Optimal list of [n] permutations of [S_n] by full enumeration over
    [(n!)^n] lists; requires [n <= 3]. *)

val certified :
  ?attempts:int -> ?local_steps:int -> rng:Doall_sim.Rng.t -> int ->
  certificate
(** [certified ~rng n] for [2 <= n <= 8]: a list of [n] permutations with
    exact [Cont <= 3 n H_n]. Raises [Failure] if no list meeting the
    bound is found within the budget (never observed for [n <= 8]). *)
