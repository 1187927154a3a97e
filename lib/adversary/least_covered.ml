type t = {
  mutable cov : int array; (* per task: -1 = not undone, else coverage *)
  mutable member : bool array; (* per task: in the last selection *)
  mutable counts : int array; (* per coverage value, then its next slot *)
}

let create () = { cov = [||]; member = [||]; counts = [||] }

(* Sizes the per-task arrays on first use (and if [tasks] changes) and
   clears them, so a stage costs O(tasks) and allocates nothing here. *)
let reset s ~tasks =
  if Array.length s.cov <> tasks then begin
    s.cov <- Array.make tasks (-1);
    s.member <- Array.make tasks false
  end
  else begin
    Array.fill s.cov 0 tasks (-1);
    Array.fill s.member 0 tasks false
  end

let set_members s ~tasks js =
  reset s ~tasks;
  List.iter (fun z -> s.member.(z) <- true) js

let mem s z = s.member.(z)

let least_covered s ~tasks ~undone ~plans k =
  reset s ~tasks;
  let cov = s.cov in
  let us = ref 0 in
  List.iter
    (fun z ->
      if cov.(z) < 0 then begin
        cov.(z) <- 0;
        incr us
      end)
    undone;
  let top = ref 0 in
  Array.iter
    (List.iter (fun z ->
         let c = cov.(z) in
         if c >= 0 then begin
           cov.(z) <- c + 1;
           if c >= !top then top := c + 1
         end))
    plans;
  let k = Int.min k !us in
  if k <= 0 then []
  else begin
    (* one counting pass: tasks per coverage value *)
    let top = !top in
    if Array.length s.counts <= top then s.counts <- Array.make (top + 1) 0
    else Array.fill s.counts 0 (top + 1) 0;
    let counts = s.counts in
    for z = 0 to tasks - 1 do
      let c = Array.unsafe_get cov z in
      if c >= 0 then Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
    done;
    (* the threshold coverage [last]: every task below it is taken, and
       the lowest ids at it fill the [k - below] slots left *)
    let last = ref 0 and below = ref 0 in
    while !below + counts.(!last) < k do
      below := !below + counts.(!last);
      incr last
    done;
    (* counts.(c) becomes bucket c's first slot in the output *)
    let start = ref 0 in
    for c = 0 to !last - 1 do
      let n = counts.(c) in
      counts.(c) <- !start;
      start := !start + n
    done;
    counts.(!last) <- !below;
    let out = Array.make k 0 in
    let last = !last in
    (* ascending ids, so each bucket fills in id order; a bucket below
       [last] ends before [below < k], and bucket [last] stops at [k] *)
    for z = 0 to tasks - 1 do
      let c = Array.unsafe_get cov z in
      if c >= 0 && c <= last then begin
        let i = Array.unsafe_get counts c in
        if i < k then begin
          out.(i) <- z;
          counts.(c) <- i + 1
        end
      end
    done;
    let js = ref [] in
    for i = k - 1 downto 0 do
      let z = out.(i) in
      s.member.(z) <- true;
      js := z :: !js
    done;
    !js
  end
