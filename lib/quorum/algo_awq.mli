(** AWQ: the Anderson-Woll algorithm over quorum-replicated memory.

    The emulation route of Section 1.1 ([16,19], Momenzadeh et al.),
    built so the paper's comparison of approaches is executable. Every
    processor plays two roles:

    - {b server}: holds a full replica of the progress tree; answers
      READ/WRITE requests on tree nodes and applies writes to its
      replica;
    - {b client}: runs the recursive Anderson-Woll traversal (the same
      q-ary tree, digit-selected permutations and post-order search as
      {!Doall_core.Algo_da}), but where DA consults its local replica and
      multicasts, AWQ performs {e memory operations}: a request is
      multicast to all processors and the operation completes when a
      majority quorum (counting the issuer's own replica) has
      responded. While an operation is in flight the client can only
      wait — and every waiting step is charged, which is precisely why
      this approach needs delays [O(K)] (K the quorum size) to stay
      subquadratic, as the paper notes.

    Two register protocols are provided ([?protocol]):

    - [`Monotone] (default): exploits that tree bits only ever go 0 to 1
      — single-phase operations, a READ completes early on the first
      value-1 response (one witness proves the subtree done);
    - [`Abd]: the full two-phase Attiya-Bar-Noy-Dolev emulation the
      general constructions [3,18] the paper cites would use —
      timestamped replicas, a quorum {e query} phase followed by a
      quorum {e store} phase for writes {b and} reads (readers write
      back what they read). Roughly doubles the round trips per
      operation; benchmark E13 measures the gap.

    In both protocols, bits the client has ever seen at 1 are cached
    locally and never re-read (legal under monotone values).

    {b Liveness differs from DA/PA by design}: if crashes (or permanent
    scheduling starvation) leave fewer than a quorum of processors
    taking steps, in-flight operations never complete and Do-All is
    never solved — the engine's time cap reports it honestly. This is
    the paper's "quorum systems disabled by failures" caveat, reproduced
    as behaviour; benchmark E13 measures both sides. *)

val make :
  ?q:int ->
  ?psi:Doall_perms.Perm.t list ->
  ?protocol:[ `Monotone | `Abd ] ->
  unit ->
  Doall_sim.Algorithm.packed
(** Same [q]/[psi] contract as {!Doall_core.Algo_da.make}; the quorum
    system is {!Quorum.majority}; [protocol] defaults to [`Monotone]. *)
