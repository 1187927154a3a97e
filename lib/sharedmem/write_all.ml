open Doall_sim
open Doall_perms
open Doall_core

type schedule = time:int -> p:int -> bool array
type crash_plan = time:int -> alive:bool array -> int list

type metrics = {
  p : int;
  t : int;
  work : int;
  reads : int;
  writes : int;
  executions : int;
  sigma : int;
  completed : bool;
  crashed : int;
}

let redundant m = if m.completed then m.executions - m.t else m.executions

let fair ~time:_ ~p = Array.make p true

let rotating ~width ~time ~p =
  let a = Array.make p false in
  for k = 0 to min width p - 1 do
    a.((time + k) mod p) <- true
  done;
  a

let random_subset ~seed ~prob =
  let rng = Rng.create seed in
  fun ~time:_ ~p -> Array.init p (fun _ -> Rng.chance rng prob)

let solo pid ~time:_ ~p = Array.init p (fun i -> i = pid)

let no_crashes ~time:_ ~alive:_ = []

(* Per-processor traversal state: the same frame-stack realization of
   Dowork as Algo_da, but against the one shared tree. *)
type frame = { node : int; depth : int; order : int array; mutable idx : int }

type proc = {
  digits : int array;
  mutable stack : frame list;
  mutable current : int option; (* leaf being executed *)
  mutable finished : bool; (* returned from the root *)
}

let run ?(q = 4) ?psi ?(schedule = fair) ?(crashes = no_crashes) ?max_time ~p
    ~t () =
  let psi =
    match psi with
    | Some psi ->
      if List.length psi <> q then
        invalid_arg "Write_all.run: psi must contain exactly q permutations";
      List.iter
        (fun pi ->
          if Perm.size pi <> q then
            invalid_arg "Write_all.run: psi permutations must have size q")
        psi;
      psi
    | None -> Algo_da.default_psi ~q
  in
  let psi_arr = Array.of_list (List.map Perm.to_array psi) in
  let part = Task.make ~p ~t in
  let sh = Progress_tree.shape ~q ~jobs:part.Task.n in
  let tree = Progress_tree.initial_marks sh in
  let task_done = Bitset.create t in
  let alive = Array.make p true in
  let procs =
    Array.init p (fun pid ->
        let digits = Qary.digits ~q ~width:sh.Progress_tree.h pid in
        let stack, current =
          if Progress_tree.is_leaf sh Progress_tree.root then
            ([], Some Progress_tree.root)
          else
            ( [
                {
                  node = Progress_tree.root;
                  depth = 0;
                  order = psi_arr.(digits.(0));
                  idx = 0;
                };
              ],
              None )
        in
        { digits; stack; current; finished = false })
  in
  let work = ref 0 in
  let reads = ref 0 in
  let writes = ref 0 in
  let executions = ref 0 in
  let time = ref 0 in
  let finished = ref false in
  let sigma = ref 0 in
  let cap =
    match max_time with
    | Some m -> m
    | None -> 10_000 + (48 * t * p)
  in
  (* one granted local step for processor [pid] *)
  let next_member_of_leaf leaf =
    Task.next_member part task_done (Progress_tree.job_of_leaf sh leaf)
  in
  let perform_at_leaf pr leaf =
    match next_member_of_leaf leaf with
    | Some z ->
      Bitset.set task_done z;
      incr executions;
      if Task.job_done part task_done (Progress_tree.job_of_leaf sh leaf)
      then begin
        incr writes;
        Bitset.set tree leaf;
        pr.current <- None
      end
      else pr.current <- Some leaf
    | None ->
      (* job finished by someone else: mark the leaf and move on *)
      incr writes;
      Bitset.set tree leaf;
      pr.current <- None
  in
  let step pid =
    let pr = procs.(pid) in
    incr work;
    if pr.finished then ()
    else
      match pr.current with
      | Some leaf -> perform_at_leaf pr leaf
      | None -> (
        match pr.stack with
        | [] ->
          pr.finished <- true;
          if Bitset.is_full task_done then begin
            if not !finished then sigma := !time;
            finished := true
          end
        | fr :: rest ->
          incr reads;
          if Bitset.mem tree fr.node then pr.stack <- rest
          else if fr.idx >= sh.Progress_tree.q then begin
            incr writes;
            Bitset.set tree fr.node;
            pr.stack <- rest
          end
          else begin
            let branch = fr.order.(fr.idx) in
            fr.idx <- fr.idx + 1;
            let child = Progress_tree.child sh fr.node branch in
            if Bitset.mem tree child then ()
            else if Progress_tree.is_leaf sh child then
              perform_at_leaf pr child
            else
              pr.stack <-
                {
                  node = child;
                  depth = fr.depth + 1;
                  order = psi_arr.(pr.digits.(fr.depth + 1));
                  idx = 0;
                }
                :: pr.stack
          end)
  in
  let live_count () =
    Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 alive
  in
  while (not !finished) && !time < cap do
    List.iter
      (fun pid ->
        if pid >= 0 && pid < p && alive.(pid) && live_count () > 1 then
          alive.(pid) <- false)
      (crashes ~time:!time ~alive);
    let active = schedule ~time:!time ~p in
    let eligible pid = alive.(pid) && not procs.(pid).finished in
    let someone = ref false in
    for pid = 0 to p - 1 do
      if active.(pid) && eligible pid then someone := true
    done;
    if not !someone then begin
      let forced = ref (-1) in
      for pid = p - 1 downto 0 do
        if eligible pid then forced := pid
      done;
      if !forced >= 0 then active.(!forced) <- true
      else begin
        (* every live processor finished: completion must have fired *)
        if Bitset.is_full task_done then begin
          if not !finished then sigma := !time;
          finished := true
        end
      end
    end;
    for pid = 0 to p - 1 do
      if active.(pid) && eligible pid then step pid
    done;
    incr time
  done;
  {
    p;
    t;
    work = !work;
    reads = !reads;
    writes = !writes;
    executions = !executions;
    sigma = (if !finished then !sigma else !time);
    completed = !finished;
    crashed = p - live_count ();
  }
