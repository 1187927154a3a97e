(* Chunked copy-on-write bitsets: 63 bits per native int, words grouped
   into power-of-two chunks. See bitset.mli.

   Ownership invariant: a chunk marked in a set's [owned] map is
   referenced by that set alone, so it may be written in place. Every
   other chunk (the shared all-zero chunk, chunks reached through
   [copy]/[snapshot] or adopted by [union_into]) is referenced by any
   number of sets and snapshots and is never written: the first write
   copies it.

   Lineage: a digest made by [union_snapshots ss] records [ss.(0)]'s
   chunk array as its [base] and, per chunk, the bits it gained over
   it. A receiver whose chunk is physically [base.(c)] holds exactly
   [base.(c)]'s bits, which the digest's chunk contains, so it adopts
   the digest's chunk and adds [gains.(c)] without reading either.
   [base] belongs to a snapshot, so no set owns any of its chunks and
   its pointer array is never written. *)

type lineage = { base : int array array; gains : int array }

(* every set but a digest; [base = [||]] never matches a chunk *)
let no_lineage = { base = [||]; gains = [||] }

type 'k set = {
  n : int;
  shift : int; (* a chunk holds [1 lsl shift] words *)
  chunks : int array array;
  mutable owned : Bytes.t;
      (* per chunk: '\001' = this set may write it in place. Empty until
         the first write, so snapshots and fresh sets carry none. *)
  mutable count : int;
  lineage : lineage;
}

type t = [ `Live ] set
type snapshot = [ `Snapshot ] set

let bits_per_word = 63

let () =
  if Sys.int_size < bits_per_word then
    failwith "Bitset: requires 63-bit native ints (a 64-bit platform)"

let words_for n = (n + bits_per_word - 1) / bits_per_word

(* Chunks of 2^s words with s = clamp(floor(log4 words), 3, 6): a snapshot
   costs about [words / 2^s] pointers plus the 2^s-word chunk its sender
   writes next, so both terms stay near sqrt(words). The last chunk holds
   only the words that remain, so a small set is one exact-size chunk. *)
let shift_for words =
  let rec log2 k w = if w <= 1 then k else log2 (k + 1) (w lsr 1) in
  Int.max 3 (Int.min 6 (log2 0 words / 2))

(* One immutable all-zero chunk per chunk length, shared by every set. *)
let zero_chunks = Array.init 65 (fun len -> Array.make len 0)

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  let words = words_for n in
  let shift = shift_for words in
  let cw = 1 lsl shift in
  {
    n;
    shift;
    chunks =
      Array.init
        ((words + cw - 1) lsr shift)
        (fun c -> zero_chunks.(Int.min cw (words - (c lsl shift))));
    owned = Bytes.empty;
    count = 0;
    lineage = no_lineage;
  }

let length b = b.n

let owns b c =
  Bytes.length b.owned > 0 && Bytes.unsafe_get b.owned c <> '\000'

(* Chunk [c] of [b], copied first unless [b] already owns it. *)
let writable b c =
  if Bytes.length b.owned = 0 then
    b.owned <- Bytes.make (Array.length b.chunks) '\000';
  if Bytes.unsafe_get b.owned c = '\000' then begin
    Array.unsafe_set b.chunks c (Array.copy (Array.unsafe_get b.chunks c));
    Bytes.unsafe_set b.owned c '\001'
  end;
  Array.unsafe_get b.chunks c

(* O(chunks): the pointer array is copied and both sides disown every
   chunk, so whichever writes first copies the one chunk it touches. *)
let share b =
  let o = b.owned in
  if Bytes.length o > 0 then Bytes.fill o 0 (Bytes.length o) '\000';
  {
    n = b.n;
    shift = b.shift;
    chunks = Array.copy b.chunks;
    owned = Bytes.empty;
    count = b.count;
    lineage = no_lineage;
  }

let copy (b : t) : t = share b
let snapshot (b : t) : snapshot = share b

let check b i =
  if i < 0 || i >= b.n then invalid_arg "Bitset: index out of range"

let word b w =
  Array.unsafe_get
    (Array.unsafe_get b.chunks (w lsr b.shift))
    (w land ((1 lsl b.shift) - 1))

let mem b i =
  check b i;
  word b (i / 63) land (1 lsl (i mod 63)) <> 0

let set b i =
  check b i;
  let w = i / 63 in
  let bit = 1 lsl (i mod 63) in
  let v = word b w in
  if v land bit = 0 then begin
    Array.unsafe_set
      (writable b (w lsr b.shift))
      (w land ((1 lsl b.shift) - 1))
      (v lor bit);
    b.count <- b.count + 1
  end

let cardinal b = b.count
let is_full b = b.count = b.n

(* Branch-free SWAR popcount. The classic 64-bit ladder, adapted to
   OCaml's 63-bit ints by peeling the top bit first so the remaining 62
   bits fit the byte-lane masks (which must stay below [max_int] to be
   writable as literals). Constant ~10 ops per word regardless of
   density — the Kernighan loop this replaces was O(set bits), which is
   the worst case exactly when words saturate late in a run. *)
let popcount w =
  let top = (w lsr 62) land 1 in
  let x = w land 0x3FFFFFFFFFFFFFFF in
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  top + ((x * 0x0101010101010101) lsr 56)

(* OR [s] into [d] in place; the number of bits gained. *)
let or_into d s =
  let added = ref 0 in
  for k = 0 to Array.length d - 1 do
    let a = Array.unsafe_get d k in
    let v = a lor Array.unsafe_get s k in
    if v <> a then begin
      Array.unsafe_set d k v;
      added := !added + popcount (v lxor a)
    end
  done;
  !added

(* The bits of [s] missing from [d], ORed together: 0 iff [d] holds
   every bit of [s]. Straight-line for 8-word chunks (every set of 8 to
   255 words has them), so the common absorbed chunk costs no loop exit
   branch; that exit, once per chunk, made the receive of a small set
   about twice as slow as a flat word loop. *)
let fresh_bits (d : int array) (s : int array) =
  let open Array in
  if length d = 8 then
    unsafe_get s 0 land lnot (unsafe_get d 0)
    lor (unsafe_get s 1 land lnot (unsafe_get d 1))
    lor (unsafe_get s 2 land lnot (unsafe_get d 2))
    lor (unsafe_get s 3 land lnot (unsafe_get d 3))
    lor (unsafe_get s 4 land lnot (unsafe_get d 4))
    lor (unsafe_get s 5 land lnot (unsafe_get d 5))
    lor (unsafe_get s 6 land lnot (unsafe_get d 6))
    lor (unsafe_get s 7 land lnot (unsafe_get d 7))
  else begin
    let fresh = ref 0 in
    for k = 0 to length d - 1 do
      fresh := !fresh lor (unsafe_get s k land lnot (unsafe_get d k))
    done;
    !fresh
  end

(* Merges chunk [c] of [src], [s], into [dst], whose chunk [d] is shared
   and lacks some of [s]'s bits; the number of bits gained. [dst] adopts
   [s] when d ⊆ s and nobody writes [s] in place. (An owned [d] is ORed
   in place instead: adopting there would make the next local write
   copy the adopted chunk again.) *)
let merge_shared dst src c s d =
  if fresh_bits s d = 0 && not (owns src c) then begin
    let gained = ref 0 in
    for k = 0 to Array.length d - 1 do
      gained :=
        !gained + popcount (Array.unsafe_get s k lxor Array.unsafe_get d k)
    done;
    Array.unsafe_set dst.chunks c s;
    !gained
  end
  else or_into (writable dst c) s

(* [union_into], remembering in [seen] (unless empty) the last chunk
   found absorbed at each position: a later [src] chunk physically that
   one is still absorbed, as [dst]'s chunks only gain bits, so it is
   skipped unread. *)
let union_seen ~dst src seen =
  if src.count = 0 || dst.count = dst.n then ()
  else begin
    let remember = Array.length seen > 0 in
    let dcs = dst.chunks and scs = src.chunks in
    let { base; gains } = src.lineage in
    let lineage = Array.length base > 0 in
    let added = ref 0 in
    for c = 0 to Array.length dcs - 1 do
      let s = Array.unsafe_get scs c and d = Array.unsafe_get dcs c in
      if s != d then
        if lineage && d == Array.unsafe_get base c then begin
          (* [d] is the lineage base's chunk: adopt without reading *)
          Array.unsafe_set dcs c s;
          added := !added + Array.unsafe_get gains c
        end
        else if remember && s == Array.unsafe_get seen c then ()
        (* absorbed chunks, the steady state, end at the read-only test *)
        else if fresh_bits d s <> 0 then
          added :=
            !added
            + if owns dst c then or_into d s else merge_shared dst src c s d
        else if remember then Array.unsafe_set seen c s
    done;
    dst.count <- dst.count + !added
  end

let union_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitset.union_into: capacity mismatch";
  union_seen ~dst src [||]

let chunk_count ch =
  let k = ref 0 in
  for i = 0 to Array.length ch - 1 do
    k := !k + popcount (Array.unsafe_get ch i)
  done;
  !k

(* [ss.(1..)] first: one epoch's snapshots share most chunks with one
   another, so those unions mostly stop at [==]; [ss.(0)], which may be
   an earlier digest, last, so the lineage is taken against it. *)
let union_snapshots ss =
  if Array.length ss = 0 then invalid_arg "Bitset.union_snapshots: empty";
  let first = ss.(0) in
  let acc = create first.n in
  (* once one sender's private copy of a chunk is merged, the snapshots
     still holding the shared one find it absorbed once, not each *)
  let seen = Array.make (Array.length acc.chunks) [||] in
  for i = 1 to Array.length ss - 1 do
    if ss.(i).n <> first.n then
      invalid_arg "Bitset.union_into: capacity mismatch";
    union_seen ~dst:acc ss.(i) seen
  done;
  union_seen ~dst:acc first seen;
  let base = first.chunks in
  let gains =
    Array.mapi
      (fun c a ->
        let b = Array.unsafe_get base c in
        if a == b then 0 else chunk_count a - chunk_count b)
      acc.chunks
  in
  (* [acc] is dropped here, so its owned chunks pass to the snapshot *)
  ({ acc with owned = Bytes.empty; lineage = { base; gains } } : snapshot)

(* Loops rather than local closures: the oracle calls [subset] for
   every pid on every tick. Physically shared chunks are skipped. *)
let subset a b =
  if a.n <> b.n then invalid_arg "Bitset.subset: capacity mismatch";
  let ok = ref true and c = ref 0 in
  while !ok && !c < Array.length a.chunks do
    let x = Array.unsafe_get a.chunks !c and y = Array.unsafe_get b.chunks !c in
    if x != y && fresh_bits y x <> 0 then ok := false;
    incr c
  done;
  !ok

let equal a b =
  a.n = b.n && a.count = b.count
  &&
  let ok = ref true and c = ref 0 in
  while !ok && !c < Array.length a.chunks do
    let x = Array.unsafe_get a.chunks !c and y = Array.unsafe_get b.chunks !c in
    if x != y then
      for k = 0 to Array.length x - 1 do
        if Array.unsafe_get x k <> Array.unsafe_get y k then ok := false
      done;
    incr c
  done;
  !ok

(* Mask selecting the valid bits of the word at [base] (the last word of a
   capacity not divisible by 63 is partial). All 63 bits of an int set is
   [-1]; [1 lsl 63] would be out of range. *)
let valid_mask b base =
  let valid = b.n - base in
  if valid >= bits_per_word then -1 else (1 lsl valid) - 1

(* Calls [f] on the index of every set bit of [w], whose bit 0 is [base]. *)
let iter_bits w base f =
  let w = ref w and i = ref base in
  while !w <> 0 do
    if !w land 1 = 1 then f !i;
    incr i;
    w := !w lsr 1
  done

let iter_set b f =
  for wi = 0 to words_for b.n - 1 do
    let w = word b wi in
    if w <> 0 then iter_bits w (wi * bits_per_word) f
  done

let iter_missing b f =
  for wi = 0 to words_for b.n - 1 do
    let base = wi * bits_per_word in
    let w = lnot (word b wi) land valid_mask b base in
    if w <> 0 then iter_bits w base f
  done

let to_list b =
  let acc = ref [] in
  iter_set b (fun i -> acc := i :: !acc);
  List.rev !acc

let missing b =
  let acc = ref [] in
  iter_missing b (fun i -> acc := i :: !acc);
  List.rev !acc

let next_missing b i =
  if i < 0 || i > b.n then invalid_arg "Bitset: index out of range";
  let nw = words_for b.n in
  let res = ref b.n and wi = ref (i / bits_per_word) in
  (* bits at or above [i] in the first word, every bit after it *)
  let from = ref (-1 lsl (i mod bits_per_word)) in
  while !res = b.n && !wi < nw do
    let base = !wi * bits_per_word in
    let m = lnot (word b !wi) land valid_mask b base land !from in
    if m <> 0 then res := base + popcount ((m land -m) - 1)
    else begin
      incr wi;
      from := -1
    end
  done;
  !res

let first_missing b =
  let i = next_missing b 0 in
  if i < b.n then Some i else None

let of_list n is =
  let b = create n in
  List.iter (set b) is;
  b

let pp ppf b =
  Format.fprintf ppf "{%a}/%d"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (to_list b) b.n
