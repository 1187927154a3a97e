(** Fixed-capacity monotone bitsets, packed 63 bits per native int word,
    with copy-on-write sharing.

    The workhorse data structure of the whole library: Do-All knowledge
    ("which tasks do I know to be done?"), progress-tree node markings, and
    the engine's global completion ledger are all bitsets. [union_into]
    is the per-message receive cost of every algorithm here, so it works
    a chunk at a time and counts newly-acquired bits only — monotonicity
    makes that O(n) total over a whole run per destination set.

    {b Layout.} Words are grouped into chunks of [2^s] words, with
    [s = clamp(⌊log₄ words⌋, 3, 6)] (8 words at [n = 4096], 32 at
    [n = 131072]); the last chunk holds only the words that remain.
    {!copy} and {!snapshot} copy only the chunk pointers;
    afterwards both sides share every chunk, and the first write to a
    shared chunk copies that one chunk. So [set] is O(1) but may
    allocate one chunk after a copy or snapshot; [mem] and [cardinal]
    are O(1) and never allocate. [union_into] skips physically equal
    chunks and may adopt a source chunk instead of writing one (see
    {!union_into}). A fresh set shares one immutable all-zero chunk and
    allocates no zero words.

    {b Two views.} ['k set] is the representation; {!t} is a live,
    writable set and {!snapshot} a read-only one. Every read accepts
    either; only {!t} can be written. A snapshot is what a broadcast
    carries: it is a value, exact under loss, reordering, duplication
    and restart, and nothing its sender does later can change it. *)

type 'k set

type t = [ `Live ] set
(** A live set: written with {!set} and {!union_into}. *)

type snapshot = [ `Snapshot ] set
(** A read-only set, made by {!snapshot} or {!union_snapshots}. *)

val create : int -> t
(** [create n] is an all-zero bitset of capacity [n] (indices [0..n-1]). *)

val length : _ set -> int
(** Capacity, as given to {!create}. *)

val copy : t -> t
(** An independent duplicate, in O(chunks). *)

val snapshot : t -> snapshot
(** The current contents of [b] as a read-only value, in O(chunks).
    Later writes to [b] copy the chunks they touch and never show in
    the snapshot. *)

val set : t -> int -> unit
(** [set b i] turns bit [i] on. Out-of-range indices raise
    [Invalid_argument]. Bits are never turned off: all knowledge in the
    Do-All model is monotone, and the API enforces it. *)

val mem : _ set -> int -> bool
(** [mem b i] is the value of bit [i]. *)

val cardinal : _ set -> int
(** Number of set bits. O(1): maintained incrementally. *)

val is_full : _ set -> bool
(** All [length b] bits set. *)

val union_into : dst:t -> _ set -> unit
(** [union_into ~dst src] ORs [src] into [dst]. The two must have equal
    capacity. This is the receive-side "merge the sender's knowledge"
    operation of every algorithm in the paper. Chunks physically shared
    with [src] are skipped. Where [dst]'s chunk is shared, is a subset
    of [src]'s, and [src] does not write its chunk in place, [dst]
    adopts [src]'s chunk rather than copying, so later merges from the
    same lineage skip it too. When [src] is a digest with a lineage
    (see {!union_snapshots}) and [dst]'s chunk is physically the
    lineage base's, [dst] adopts [src]'s chunk without reading either
    and adds the bits the lineage recorded for it. *)

val union_snapshots : snapshot array -> snapshot
(** The union of a non-empty array of equal-capacity snapshots: one
    epoch's broadcasts folded into one digest. Merging the result once
    equals merging every input in turn.

    {b Lineage.} The result records one against [ss.(0)]: [ss.(0)]'s
    chunk array as its base, and per chunk the number of bits the
    result gained over it. A set holding base chunk [c] then takes the
    result's chunk [c] in {!union_into} as a pointer swap. No set owns
    a snapshot's chunk, so the recorded count is exact. The engine
    passes the previous epoch's digest as [ss.(0)], which most
    receivers' chunks came from. [ss.(1..)] are folded first and
    [ss.(0)] last: one epoch's snapshots share most chunks with one
    another, so their unions mostly stop at [==]. A lineage costs the
    result one pointer array of the base and one int per chunk; every
    other set carries the shared empty lineage, one word. *)

val subset : _ set -> _ set -> bool
(** [subset a b] iff every bit of [a] is set in [b]. *)

val equal : _ set -> _ set -> bool

val iter_set : _ set -> (int -> unit) -> unit
(** [iter_set b f] applies [f] to every set index, in increasing order. *)

val to_list : _ set -> int list
(** Set indices, increasing. *)

val missing : _ set -> int list
(** Clear indices, increasing. *)

val first_missing : _ set -> int option
(** Smallest clear index, if any. *)

val next_missing : _ set -> int -> int
(** [next_missing b i] is the smallest clear index [>= i], or [length b]
    when there is none. [0 <= i <= length b]. A word at a time: the
    job scans of the algorithms ({!Doall_core.Task.first_unknown}) use
    it instead of probing bit by bit. *)

val of_list : int -> int list -> t
(** [of_list n is] is a capacity-[n] bitset with exactly the bits [is] set. *)

val pp : Format.formatter -> _ set -> unit
(** Renders as e.g. [{0,3,7}/16] (set indices / capacity). *)
