(* See msg_ring.mli. Layout: [horizon + 1] buckets (slot = due mod
   buckets); each bucket is a circular struct-of-arrays FIFO of (due, id)
   int columns with power-of-two capacity, grown geometrically and
   reused thereafter — zero allocation per message at steady state, and
   no pointer store (so no remembered-set entry) per message.

   Correctness rests on one invariant: appends to the same bucket arrive
   in non-decreasing due order. Two events in one bucket have dues
   differing by a multiple of [horizon + 1]; under the add contract (an
   event lands at most [horizon] ahead of the instant it is added,
   instants never decreasing), a later add can be earlier-due by at most
   [horizon], so equal buckets force equal-or-later dues. Each bucket is
   therefore a FIFO sorted by due, and within one due by insertion. *)

type bucket = {
  mutable due : int array;
  mutable id : int array;
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
  let bucket () = { due = [||]; id = [||]; head = 0; len = 0 } in
  let slots = Array.init (horizon + 1) (fun _ -> bucket ()) in
  { slots; cursor = -1; count = 0; hd = slots.(0) }

let size r = r.count

let push b ~due ~id =
  let cap = Array.length b.due in
  if b.len = cap then begin
    (* full (or never allocated): grow to the next power of two *)
    let cap' = if cap = 0 then 4 else 2 * cap in
    let due' = Array.make cap' 0 and id' = Array.make cap' 0 in
    for i = 0 to b.len - 1 do
      let j = (b.head + i) land (cap - 1) in
      due'.(i) <- b.due.(j);
      id'.(i) <- b.id.(j)
    done;
    b.due <- due';
    b.id <- id';
    b.head <- 0
  end;
  let at = (b.head + b.len) land (Array.length b.due - 1) in
  Array.unsafe_set b.due at due;
  Array.unsafe_set b.id at id;
  b.len <- b.len + 1

let admits r ~due = due > r.cursor

let add_in r ~bucket ~due ~id =
  if not (admits r ~due) then
    invalid_arg "Msg_ring.add: ring event at or before the cursor";
  push r.slots.(bucket) ~due ~id;
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
      if b.len > 0 && Array.unsafe_get b.due b.head = t then begin
        r.hd <- b;
        found := true
        (* leave [cursor] at [t - 1]: more events due at [t] may remain *)
      end
      else r.cursor <- t
    done;
    !found
  end

let head_due r = Array.unsafe_get r.hd.due r.hd.head
let head_id r = Array.unsafe_get r.hd.id r.hd.head

let pop r =
  let b = r.hd in
  b.head <- (b.head + 1) land (Array.length b.due - 1);
  b.len <- b.len - 1;
  r.count <- r.count - 1
