(** Numeric verification of the paper's Lemma 3.2 (Appendix A).

    The randomized lower bound (Lemma 3.3) needs, for [1 <= d <= sqrt u]
    and [k = u/(d+1)]:

    {v C(u - d, k) / C(u, k)  >=  1/4 v}

    (it is applied as "... >= p/4" in inequality (1) of the proof).
    The appendix derives it by sandwiching the ratio:

    {v (1 - d/(u - k + 1))^k  <=  ratio  <=  (1 - d/u)^k v}

    and bounding the left side below by [1/4] (via
    [(1/4)^(du/(ud+d+1)) >= 1/4]) and the right side below by [1/e]
    (via [e^(-d/(d+1)) >= 1/e]). Note the ratio itself can exceed [1/e]
    — at [d = 1] it equals exactly [(u - k)/u ~= 1/2]; the published
    statement's "1/e" is a bound on the sandwich's right expression, not
    an upper bound on the ratio (the typeset relations are ambiguous in
    the source text; the usable direction is unambiguous from Lemma
    3.3's application).

    This module evaluates everything exactly in log space and checks the
    operative inequality and the sandwich over ranges of [(u, d)] — the
    appendix, machine-checked on concrete values. *)

val ratio : u:int -> d:int -> float
(** [C(u-d, k) / C(u, k)] with [k = u / (d+1)] (integer division, as in
    the proof). Requires [1 <= d] and [u >= d + 1]. *)

val first_counterexample : u_max:int -> (int * int) option
(** Scan every [u <= u_max] and every [1 <= d <= sqrt u] for a pair
    breaking the operative claim or the proof's sandwich
    ([lower <= ratio <= upper], [ratio >= 1/4], [upper >= 1/e]); [None]
    when the lemma holds everywhere (the expected outcome). *)
