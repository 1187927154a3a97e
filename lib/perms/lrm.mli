(** Left-to-right maxima and their delay-sensitive generalization.

    For a schedule [pi = <pi(0), .., pi(n-1)>]:

    - [pi(j)] is a {e left-to-right maximum} (lrm, Knuth vol. 3) when it
      exceeds every earlier element. [lrm pi] counts them; it is the number
      of tasks a second processor performs redundantly when racing a first
      processor whose completion order is the identity (Section 4's
      two-processor motivation).
    - [pi(j)] is a {e d-left-to-right maximum} (d-lrm, Section 4.2) when
      fewer than [d] earlier elements exceed it. With message delay [d], a
      processor may redundantly perform precisely its d-lrm's: it cannot
      have heard about fewer than [d] later-scheduled completions.

    [d_lrm] with [d = 1] coincides with [lrm]. *)

val lrm : Perm.t -> int
(** Number of left-to-right maxima. O(n). *)

val d_lrm : d:int -> Perm.t -> int
(** Number of d-lrm's. O(n log n) via a Fenwick tree. Requires [d >= 1].
    [d_lrm ~d:1 pi = lrm pi]; [d_lrm ~d:n pi = n]. *)

val d_lrm_profile : Perm.t -> int array
(** [d_lrm_profile pi] has length [n + 1]; entry [d] (for [1 <= d <= n])
    is [d_lrm ~d pi], computed for all [d] in one O(n log n) pass that
    counts, for each position, the earlier elements exceeding it
    (entry 0 is 0).
    Satisfies: non-decreasing, [profile.(1) = lrm pi],
    [profile.(n) = n]. *)
