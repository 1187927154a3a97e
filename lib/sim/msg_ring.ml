(* See msg_ring.mli. Layout: [horizon + 1] buckets (slot = due mod
   buckets); each bucket is a circular FIFO of queued events, one int
   each, [due lsl bits lor id], with power-of-two capacity, grown
   geometrically and reused thereafter — zero allocation per message at
   steady state, one word per queued copy, and no pointer store (so no
   remembered-set entry) per message. [due] and [id] must both fit in
   [bits] bits, so the packed int is non-negative and decodes exactly.

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

type bucket = {
  mutable ev : int array; (* due lsl bits lor id *)
  mutable head : int;
  mutable len : int;
}

type t = {
  slots : bucket array;
  mutable cursor : int; (* every event due <= cursor has been popped *)
  mutable count : int;
  mutable hd : bucket; (* bucket found by the last successful peek *)
}

let create ~horizon () =
  if horizon < 1 then invalid_arg "Msg_ring.create: horizon must be >= 1";
  let bucket () = { ev = [||]; head = 0; len = 0 } in
  let slots = Array.init (horizon + 1) (fun _ -> bucket ()) in
  { slots; cursor = -1; count = 0; hd = slots.(0) }

let size r = r.count

let push b e =
  let cap = Array.length b.ev in
  if b.len = cap then begin
    (* full (or never allocated): grow to the next power of two *)
    let ev' = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
    for i = 0 to b.len - 1 do
      ev'.(i) <- b.ev.((b.head + i) land (cap - 1))
    done;
    b.ev <- ev';
    b.head <- 0
  end;
  Array.unsafe_set b.ev ((b.head + b.len) land (Array.length b.ev - 1)) e;
  b.len <- b.len + 1

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
  push r.slots.(bucket) ((due lsl bits) lor id);
  r.count <- r.count + 1

let add r ~due ~id = add_in r ~bucket:(due mod Array.length r.slots) ~due ~id

let peek r ~now =
  if r.count = 0 then begin
    if now > r.cursor then r.cursor <- now;
    false
  end
  else begin
    let s = Array.length r.slots in
    let found = ref false in
    while (not !found) && r.cursor < now do
      let t = r.cursor + 1 in
      let b = Array.unsafe_get r.slots (t mod s) in
      if b.len > 0 && Array.unsafe_get b.ev b.head lsr bits = t then begin
        r.hd <- b;
        found := true
        (* leave [cursor] at [t - 1]: more events due at [t] may remain *)
      end
      else r.cursor <- t
    done;
    !found
  end

let head_due r = Array.unsafe_get r.hd.ev r.hd.head lsr bits
let head_id r = Array.unsafe_get r.hd.ev r.hd.head land max_id

let pop r =
  let b = r.hd in
  b.head <- (b.head + 1) land (Array.length b.ev - 1);
  b.len <- b.len - 1;
  r.count <- r.count - 1
