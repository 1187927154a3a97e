(* See msg_ring.mli. Layout: [horizon + 1] buckets (slot = due mod
   buckets); each bucket is a FIFO of queued events, one int each,
   [due lsl bits lor id], kept in a chain of [block]-int blocks. A
   bucket is two ints, the positions of its first and its last event
   ([k * block + i] names slot [i] of block [k]; last is [-1] when the
   bucket is empty). Slot [block] of a block links to the next block of
   its chain, or of the ring's free list. A bucket takes a block from
   the free list when its last block is full, and gives a block back
   once its head passes the block's last slot or the bucket empties, so
   a bucket of n events holds at most ceil(n / block) + 1 blocks, and
   the ring never copies an event to grow. Blocks are made only when
   the free list is empty: zero allocation per message at steady state,
   one word per queued copy, and no pointer store (so no remembered-set
   entry) per message. [due] and [id] must both fit in [bits] bits, so
   the packed int is non-negative and decodes exactly.

   Correctness rests on one invariant: appends to the same bucket arrive
   in non-decreasing due order. Two events in one bucket have dues
   differing by a multiple of [horizon + 1]; under the add contract (an
   event lands at most [horizon] ahead of the instant it is added,
   instants never decreasing), a later add can be earlier-due by at most
   [horizon], so equal buckets force equal-or-later dues. Each bucket is
   therefore a FIFO sorted by due, and within one due by insertion. *)

let bits = 31
let max_due = (1 lsl bits) - 1
let max_id = max_due

(* events per block (32 read best; 16 and 64 allocate more) *)
let lg = 5
let block = 1 lsl lg
let slot = block - 1

type t = {
  first : int array; (* per bucket: position of its head event *)
  last : int array; (* per bucket: position of its last event, or -1 *)
  mutable blocks : int array array; (* [block + 1] ints each *)
  mutable made : int; (* blocks made: [blocks.(0 .. made - 1)] *)
  mutable free : int; (* first free block, or -1 *)
  mutable cursor : int; (* every event due <= cursor has been popped *)
  mutable count : int;
  mutable hd : int; (* bucket found by the last successful peek *)
}

let create ~horizon () =
  if horizon < 1 then invalid_arg "Msg_ring.create: horizon must be >= 1";
  {
    first = Array.make (horizon + 1) 0;
    last = Array.make (horizon + 1) (-1);
    blocks = [||];
    made = 0;
    free = -1;
    cursor = -1;
    count = 0;
    hd = 0;
  }

let size r = r.count
let blk r k = Array.unsafe_get r.blocks k
let get r pos = Array.unsafe_get (blk r (pos lsr lg)) (pos land slot)

(* A block from the free list, or a new one. *)
let take r =
  let k = r.free in
  if k >= 0 then begin
    r.free <- Array.unsafe_get (blk r k) block;
    k
  end
  else begin
    let k = r.made in
    if k = Array.length r.blocks then begin
      let blocks = Array.make (Int.max 4 (2 * k)) [||] in
      Array.blit r.blocks 0 blocks 0 k;
      r.blocks <- blocks
    end;
    r.blocks.(k) <- Array.make (block + 1) 0;
    r.made <- k + 1;
    k
  end

let release r k =
  Array.unsafe_set (blk r k) block r.free;
  r.free <- k

let push r b e =
  let l = r.last.(b) in
  let pos =
    if l < 0 then begin
      let pos = take r lsl lg in
      Array.unsafe_set r.first b pos;
      pos
    end
    else if (l + 1) land slot <> 0 then l + 1
    else begin
      (* the last block is full: chain a fresh one after it *)
      let k = take r in
      Array.unsafe_set (blk r (l lsr lg)) block k;
      k lsl lg
    end
  in
  Array.unsafe_set (blk r (pos lsr lg)) (pos land slot) e;
  Array.unsafe_set r.last b pos

let admits r ~due = due > r.cursor

let add_in r ~bucket ~due ~id =
  if not (admits r ~due) then
    invalid_arg "Msg_ring.add: ring event at or before the cursor";
  (* one test for both: a negative value has its top bits set *)
  if (due lor id) lsr bits <> 0 then
    invalid_arg
      (if due > max_due then
         "Msg_ring.add: due past Msg_ring.max_due (2^31 - 1)"
       else "Msg_ring.add: id outside [0, Msg_ring.max_id] (2^31 - 1)");
  push r bucket ((due lsl bits) lor id);
  r.count <- r.count + 1

let add r ~due ~id = add_in r ~bucket:(due mod Array.length r.first) ~due ~id

let peek r ~now =
  if r.count = 0 then begin
    if now > r.cursor then r.cursor <- now;
    false
  end
  else begin
    let s = Array.length r.first in
    let found = ref false in
    while (not !found) && r.cursor < now do
      let t = r.cursor + 1 in
      let b = t mod s in
      if
        Array.unsafe_get r.last b >= 0
        && get r (Array.unsafe_get r.first b) lsr bits = t
      then begin
        r.hd <- b;
        found := true
        (* leave [cursor] at [t - 1]: more events due at [t] may remain *)
      end
      else r.cursor <- t
    done;
    !found
  end

let head_due r = get r (Array.unsafe_get r.first r.hd) lsr bits
let head_id r = get r (Array.unsafe_get r.first r.hd) land max_id

let pop r =
  let b = r.hd in
  let f = Array.unsafe_get r.first b in
  if f = Array.unsafe_get r.last b then begin
    release r (f lsr lg);
    Array.unsafe_set r.last b (-1)
  end
  else if (f + 1) land slot <> 0 then Array.unsafe_set r.first b (f + 1)
  else begin
    (* the head leaves its block: free it *)
    let k = f lsr lg in
    Array.unsafe_set r.first b (Array.unsafe_get (blk r k) block lsl lg);
    release r k
  end;
  r.count <- r.count - 1
