(** q-ary expansions of processor identifiers (Section 5.1).

    Algorithm DA(q) routes processor [pid] through the progress tree by
    the digits of [pid] written in base [q]: the digit at index [m]
    (least-significant first) selects which permutation from the list
    [psi] orders the subtree visits at depth [m]. Only the [h] least
    significant digits matter for a tree of height [h]; when [p > q^h]
    several processors are indistinguishable, exactly as the paper
    notes. *)

val digits : q:int -> width:int -> int -> int array
(** [digits ~q ~width pid] is the little-endian base-[q] expansion of
    [pid], padded/truncated to exactly [width] digits. Requires [q >= 2],
    [width >= 0], [pid >= 0]. *)
