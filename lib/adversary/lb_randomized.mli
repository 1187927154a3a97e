(** The online stage adversary of Theorem 3.4 (and Fig. 1), executable.

    Against a randomized algorithm the adversary cannot precompute
    [J_s(i)] — future coin flips are unknowable. The proof instead fixes
    a target set [J_s] at the start of each stage and defines the
    undelayed set [P_s] {e online}: every processor is let run until the
    moment it {e selects} a task in [J_s]; at that instant it is delayed
    to the end of the stage and drops out of [P_s] (exactly the picture
    in Fig. 1 of the paper). Lemma 3.3 shows a choice of [J_s] of size
    [u_s / (d+1)] exists for which at least [p/64] processors survive the
    stage undelayed, with high probability.

    Selection of [J_s] is pluggable, since the lemma's argmax over the
    distributions [p_i(Y)] is not computable in general:

    - [`Coverage]: least-covered tasks according to each processor's
      {e currently determined} plan (clone lookahead). Exact for
      algorithms whose schedule is already fixed in their state (PaDet;
      PaRan1 after its initial shuffle) — for these, lookahead reads
      present state, not future coins.
    - [`Random]: uniformly random subset of the undone tasks. The right
      choice against PaRan2, whose selection distribution is uniform —
      Lemma 3.3's objective is then constant over all candidate sets, so
      a random set is an optimal one, and the adversary stays honestly
      adaptive (no coin prediction enters the choice).

    The online delaying rule itself uses one-step lookahead
    ([would_perform]), which for a cloned generator equals observing the
    processor's selection as it happens — the Fig. 1 rule. *)

open Doall_sim

val create : ?selection:[ `Coverage | `Random ] -> unit -> Adversary.t
(** Default selection is [`Coverage]. Fresh instance per run. *)

val stages_of : Adversary.t -> (int * int * int list) list
(** [(stage_start, u_s, J_s)] history of the most recent run, held
    only while the adversary (its name string) is reachable. *)
