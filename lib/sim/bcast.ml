(* See bcast.mli. One broadcast = one record in a growable circular
   struct-of-arrays buffer, globally sorted by (due, seq) because the
   engine only streams broadcasts whose delay is a declared constant:
   send instants never decrease, so dues never decrease, and seq breaks
   ties in send order. Each destination keeps a cursor (absolute record
   index); delivery walks the cursor over records due by now. A record's
   [rc] counts the active destinations whose cursors have not passed it
   yet (the sender included — it passes its own record without a
   delivery); storage is reclaimed from the head once [rc] hits zero. *)

type 'msg t = {
  p : int;
  mutable due : int array; (* columns, circular: slot = index land mask *)
  mutable src : int array;
  mutable seq : int array;
  mutable rc : int array;
  mutable msg : 'msg array;
  mutable head : int; (* absolute index of the first retained record *)
  mutable tail : int; (* absolute index one past the last record *)
  mutable last_due : int;
  cursor : int array; (* per pid: absolute index of the next record *)
  active : bool array;
  mutable n_active : int;
  mutable filler : 'msg option; (* overwrites reclaimed slots *)
  (* Epoch index for the digest fast path (None fold = disabled). An
     epoch is a maximal run of equal-due records; since dues never
     decrease, epochs are contiguous [e_start(e), e_start(e+1)) slices
     of the record stream, themselves kept in a circular deque indexed
     by absolute epoch number. [e_digest] caches fold(all msgs of the
     epoch), computed at the first whole-epoch drain and shared by
     every later receiver; sound because a record due at T was added at
     T - delta < T (delta >= 1), so a deliverable epoch can no longer
     grow. *)
  fold : ('msg array -> 'msg) option;
  mutable e_start : int array; (* absolute record index opening epoch e *)
  mutable e_due : int array;
  mutable e_digest : 'msg option array;
  mutable e_head : int; (* absolute index of first retained epoch *)
  mutable e_tail : int; (* one past the last epoch *)
}

let create ?fold ~p () =
  if p <= 0 then invalid_arg "Bcast.create: need at least one processor";
  {
    p;
    due = [||];
    src = [||];
    seq = [||];
    rc = [||];
    msg = [||];
    head = 0;
    tail = 0;
    last_due = min_int;
    cursor = Array.make p 0;
    active = Array.make p true;
    n_active = p;
    filler = None;
    fold;
    e_start = [||];
    e_due = [||];
    e_digest = [||];
    e_head = 0;
    e_tail = 0;
  }

let check_pid s pid name =
  if pid < 0 || pid >= s.p then invalid_arg (name ^ ": pid out of range")

let grow s msg0 =
  let cap = Array.length s.due in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let due' = Array.make cap' 0
  and src' = Array.make cap' 0
  and seq' = Array.make cap' 0
  and rc' = Array.make cap' 0
  and msg' = Array.make cap' msg0 in
  let mask = cap - 1 and mask' = cap' - 1 in
  for k = s.head to s.tail - 1 do
    let j = k land mask and j' = k land mask' in
    due'.(j') <- s.due.(j);
    src'.(j') <- s.src.(j);
    seq'.(j') <- s.seq.(j);
    rc'.(j') <- s.rc.(j);
    msg'.(j') <- s.msg.(j)
  done;
  s.due <- due';
  s.src <- src';
  s.seq <- seq';
  s.rc <- rc';
  s.msg <- msg'

(* -- epoch deque (digest fast path only) -------------------------- *)

let epoch_end s e =
  if e + 1 < s.e_tail then s.e_start.((e + 1) land (Array.length s.e_start - 1))
  else s.tail

let epoch_grow s =
  let cap = Array.length s.e_start in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let start' = Array.make cap' 0
  and due' = Array.make cap' 0
  and digest' = Array.make cap' None in
  let mask = cap - 1 and mask' = cap' - 1 in
  for e = s.e_head to s.e_tail - 1 do
    let j = e land mask and j' = e land mask' in
    start'.(j') <- s.e_start.(j);
    due'.(j') <- s.e_due.(j);
    digest'.(j') <- s.e_digest.(j)
  done;
  s.e_start <- start';
  s.e_due <- due';
  s.e_digest <- digest'

let epoch_push s ~due =
  let emask = Array.length s.e_start - 1 in
  if
    s.e_tail = s.e_head
    || due > Array.unsafe_get s.e_due ((s.e_tail - 1) land emask)
  then begin
    if s.e_tail - s.e_head = Array.length s.e_start then epoch_grow s;
    let j = s.e_tail land (Array.length s.e_start - 1) in
    Array.unsafe_set s.e_start j s.tail;
    Array.unsafe_set s.e_due j due;
    Array.unsafe_set s.e_digest j None;
    s.e_tail <- s.e_tail + 1
  end

(* Greatest retained epoch whose start is <= c (binary search; the
   in-flight window holds at most delta + 1 epochs, but stay O(log)). *)
let epoch_of s c =
  let emask = Array.length s.e_start - 1 in
  let lo = ref s.e_head and hi = ref (s.e_tail - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Array.unsafe_get s.e_start (mid land emask) <= c then lo := mid
    else hi := mid - 1
  done;
  !lo

let epoch_reclaim s =
  while s.e_head < s.e_tail && epoch_end s s.e_head <= s.head do
    let j = s.e_head land (Array.length s.e_start - 1) in
    Array.unsafe_set s.e_digest j None;
    s.e_head <- s.e_head + 1
  done

let reclaim s =
  let mask = Array.length s.due - 1 in
  let moved = ref false in
  while s.head < s.tail && Array.unsafe_get s.rc (s.head land mask) = 0 do
    (* drop the payload reference so reclaimed records don't retain it *)
    (match s.filler with
     | Some f -> Array.unsafe_set s.msg (s.head land mask) f
     | None -> ());
    s.head <- s.head + 1;
    moved := true
  done;
  if !moved && s.e_tail > s.e_head then epoch_reclaim s

let add s ~due ~src ~seq msg =
  check_pid s src "Bcast.add src";
  if due < s.last_due then
    invalid_arg "Bcast.add: due times must be non-decreasing";
  s.last_due <- due;
  (match s.filler with None -> s.filler <- Some msg | Some _ -> ());
  if s.tail - s.head = Array.length s.due then grow s msg;
  (match s.fold with Some _ -> epoch_push s ~due | None -> ());
  let i = s.tail land (Array.length s.due - 1) in
  Array.unsafe_set s.due i due;
  Array.unsafe_set s.src i src;
  Array.unsafe_set s.seq i seq;
  Array.unsafe_set s.rc i s.n_active;
  Array.unsafe_set s.msg i msg;
  s.tail <- s.tail + 1

let peek s ~dst ~now =
  check_pid s dst "Bcast.peek";
  if not (Array.unsafe_get s.active dst) then false
  else begin
    let mask = Array.length s.due - 1 in
    let c = ref (Array.unsafe_get s.cursor dst) in
    let passed_own = ref false in
    (* pass (without delivering) our own due records: they keep global
       (due, seq) order but a processor never receives from itself *)
    while
      !c < s.tail
      && Array.unsafe_get s.due (!c land mask) <= now
      && Array.unsafe_get s.src (!c land mask) = dst
    do
      let i = !c land mask in
      Array.unsafe_set s.rc i (Array.unsafe_get s.rc i - 1);
      incr c;
      passed_own := true
    done;
    if !passed_own then begin
      Array.unsafe_set s.cursor dst !c;
      reclaim s
    end;
    !c < s.tail && Array.unsafe_get s.due (!c land mask) <= now
  end

let idx s dst = Array.unsafe_get s.cursor dst land (Array.length s.due - 1)
let head_due s ~dst = Array.unsafe_get s.due (idx s dst)
let head_seq s ~dst = Array.unsafe_get s.seq (idx s dst)
let head_src s ~dst = Array.unsafe_get s.src (idx s dst)
let head_msg s ~dst = Array.unsafe_get s.msg (idx s dst)

let pop s ~dst =
  let i = idx s dst in
  Array.unsafe_set s.rc i (Array.unsafe_get s.rc i - 1);
  Array.unsafe_set s.cursor dst (Array.unsafe_get s.cursor dst + 1);
  reclaim s

(* fold(all msgs of epoch [e]), cached so only the first receiver pays.
   Safe to compute at any drain: [head <= cursor(dst) = e_start(e)]
   keeps every record of the epoch un-reclaimed, and a deliverable
   epoch is sealed (see the type comment). *)
let digest s e fold =
  let j = e land (Array.length s.e_start - 1) in
  match Array.unsafe_get s.e_digest j with
  | Some d -> d
  | None ->
      let start = Array.unsafe_get s.e_start j in
      let stop = epoch_end s e in
      let mask = Array.length s.due - 1 in
      let d =
        if stop - start = 1 then Array.unsafe_get s.msg (start land mask)
        else
          fold
            (Array.init (stop - start) (fun i ->
                 Array.unsafe_get s.msg ((start + i) land mask)))
      in
      Array.unsafe_set s.e_digest j (Some d);
      d

let drain s ~dst ~now f =
  check_pid s dst "Bcast.drain";
  match s.fold with
  | None ->
      let n = ref 0 in
      while peek s ~dst ~now do
        f (head_src s ~dst) (head_msg s ~dst);
        incr n;
        pop s ~dst
      done;
      !n
  | Some fold ->
      if not (Array.unsafe_get s.active dst) then 0
      else begin
        let delivered = ref 0 in
        let running = ref true in
        while !running do
          let c = Array.unsafe_get s.cursor dst in
          if c >= s.tail then running := false
          else begin
            let mask = Array.length s.due - 1 in
            if Array.unsafe_get s.due (c land mask) > now then
              running := false
            else begin
              let e = epoch_of s c in
              if Array.unsafe_get s.e_start (e land (Array.length s.e_start - 1)) = c
              then begin
                (* whole due epoch: one digest apply replaces the
                   per-record walk; own records are passed inside the
                   same scan (their contribution to the digest is a
                   subset of the receiver's own knowledge) *)
                let stop = epoch_end s e in
                let dmsg = digest s e fold in
                let own = ref 0 in
                for k = c to stop - 1 do
                  let i = k land mask in
                  Array.unsafe_set s.rc i (Array.unsafe_get s.rc i - 1);
                  if Array.unsafe_get s.src i = dst then incr own
                done;
                Array.unsafe_set s.cursor dst stop;
                reclaim s;
                let n = stop - c - !own in
                if n > 0 then begin
                  delivered := !delivered + n;
                  f (-1) dmsg
                end
              end
              else if peek s ~dst ~now then begin
                (* mid-epoch cursor (left by the per-record merge path):
                   single-record step, then retry the fast path *)
                f (head_src s ~dst) (head_msg s ~dst);
                incr delivered;
                pop s ~dst
              end
              else running := false
            end
          end
        done;
        !delivered
      end

let stats s =
  (* one walk over every cached digest together: digests may share
     blocks (copy-on-write knowledge chunks), and a per-digest sum would
     count each shared block once per digest *)
  let digests = ref [] in
  if s.e_tail > s.e_head then begin
    let emask = Array.length s.e_start - 1 in
    for e = s.e_head to s.e_tail - 1 do
      match Array.unsafe_get s.e_digest (e land emask) with
      | Some d -> digests := d :: !digests
      | None -> ()
    done
  end;
  let words =
    match !digests with
    | [] -> 0
    | ds ->
      let arr = Array.of_list ds in
      (* minus the walk's own array block *)
      Obj.reachable_words (Obj.repr arr) - (Array.length arr + 1)
  in
  (s.tail - s.head, words)

let deactivate s ~pid =
  check_pid s pid "Bcast.deactivate";
  if Array.unsafe_get s.active pid then begin
    s.active.(pid) <- false;
    s.n_active <- s.n_active - 1;
    let mask = Array.length s.due - 1 in
    for k = s.cursor.(pid) to s.tail - 1 do
      let i = k land mask in
      Array.unsafe_set s.rc i (Array.unsafe_get s.rc i - 1)
    done;
    s.cursor.(pid) <- s.tail;
    if s.head < s.tail then reclaim s
  end
