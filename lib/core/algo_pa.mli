(** The permutation algorithms PA (Section 6).

    The common shell (Fig. 4): while a processor has not ascertained that
    all tasks are complete, it performs one not-known-done task from its
    local list and multicasts its knowledge; received knowledge prunes
    the list. One local step = one task performance plus one broadcast
    submission, so work equals the number of task performances (the
    accounting of Lemma 6.1) and message complexity is [(p-1) * W]
    (Theorems 6.2 and 6.3).

    The three specializations differ only in [Order] / [Select]:

    - {b PaRan1}: each processor draws one uniformly random permutation
      of the jobs up front and follows it.
    - {b PaRan2}: each selection is uniform among the not-known-done
      jobs ([O(EW log t)] random bits instead of [p n log n]).
    - {b PaDet}: processor [pid] follows the [pid]-th permutation of a
      fixed list [psi]; with [psi] of low d-contention, work is bounded
      by [(d)-Cont(psi)] against every d-adversary (Lemma 6.1), giving
      [O(t log p + p d log(2 + t/d))] (Corollary 6.5). The default
      [psi] instantiates Corollary 4.5 by the probabilistic method: a
      random list from a fixed seed, the paper's own construction.

    With [p < t], jobs of [ceil(t/p)] tasks replace tasks throughout
    (Section 6's parameterization); a job's member tasks are performed
    on consecutive steps. *)

val make_ran1 :
  ?gossip:[ `Full | `Single ] ->
  ?broadcast_every:int ->
  ?fanout:int ->
  unit ->
  Doall_sim.Algorithm.packed

val make_ran2 :
  ?gossip:[ `Full | `Single ] ->
  ?broadcast_every:int ->
  ?fanout:int ->
  unit ->
  Doall_sim.Algorithm.packed

val make_det :
  ?gossip:[ `Full | `Single ] ->
  ?broadcast_every:int ->
  ?fanout:int ->
  ?psi:Doall_perms.Perm.t list ->
  unit ->
  Doall_sim.Algorithm.packed
(** An explicit [psi] must be non-empty ([Invalid_argument] here
    otherwise) and hold permutations of size [min(p, t)]
    ([Invalid_argument] at the run's first [init] otherwise); when it
    has fewer than [p] entries, processor [pid] uses entry
    [pid mod length].

    [gossip] is an ablation knob (default [`Full], the paper's model):
    [`Single] broadcasts only the task just performed instead of the
    processor's whole knowledge set, weakening information propagation —
    used by the experiments to show the knowledge model of
    Lemma 6.1 is load-bearing.

    [broadcast_every] (default 1, the paper's algorithm) is an
    {e extension} addressing the paper's closing open problem of
    controlling work and message complexity simultaneously: broadcast
    only on every k-th performing step (and always when the local
    knowledge set fills). k > 1 divides message complexity by roughly k
    at the cost of extra redundant work; benchmark E14 maps the
    trade-off.

    [fanout] (default: broadcast to all p-1) is a second extension in
    the same spirit, after the "inexpensive gossip" line of work the
    paper cites as [12]: send knowledge to [fanout] uniformly random
    destinations instead of everyone, replacing the p-1 multicast by k
    unicasts. Note this adds coin flips to PaDet's sends (its task
    schedule stays deterministic). Benchmark E16 maps this trade-off. *)

val det_schedules : n:int -> p:int -> int array array
(** PaDet's default list for [p] processors and [n = min(p, t)] jobs:
    row [u] is [Perm.to_array] of entry [u] of
    [Gen.seeded_list ~seed:0xD0A11 ~n ~count:p]. Built once and
    kept in a one-entry per-domain cache keyed on [(n, p)], so every
    processor of a run shares it; the rows must not be written. *)
