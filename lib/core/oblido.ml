open Doall_sim
open Doall_perms

type replay_stats = { executions : int; primary : int; rounds_used : int }

let replay ~psi ~rounds =
  let scheds = Array.of_list (List.map Perm.to_array psi) in
  let count = Array.length scheds in
  if count = 0 then invalid_arg "Oblido.replay: empty psi";
  let n = Array.length scheds.(0) in
  Array.iter
    (fun s ->
      if Array.length s <> n then
        invalid_arg "Oblido.replay: schedules of unequal size")
    scheds;
  let pos = Array.make count 0 in
  let completed = Array.make n false in
  let executions = ref 0 in
  let primary = ref 0 in
  let rounds_used = ref 0 in
  let run_round pids =
    incr rounds_used;
    let seen = Hashtbl.create 8 in
    (* Primary status is judged against completions of *earlier* rounds:
       collect this round's executions first, then commit. *)
    let performed_now = ref [] in
    List.iter
      (fun u ->
        if u < 0 || u >= count then invalid_arg "Oblido.replay: bad pid";
        if Hashtbl.mem seen u then
          invalid_arg "Oblido.replay: duplicate pid in round";
        Hashtbl.add seen u ();
        if pos.(u) < n then begin
          let job = scheds.(u).(pos.(u)) in
          pos.(u) <- pos.(u) + 1;
          incr executions;
          if not completed.(job) then incr primary;
          performed_now := job :: !performed_now
        end)
      pids;
    List.iter (fun job -> completed.(job) <- true) !performed_now
  in
  List.iter run_round rounds;
  (* Finish any unfinished processors in lock-step. *)
  let unfinished () =
    let acc = ref [] in
    for u = count - 1 downto 0 do
      if pos.(u) < n then acc := u :: !acc
    done;
    !acc
  in
  let rec drain () =
    match unfinished () with
    | [] -> ()
    | pids ->
      run_round pids;
      drain ()
  in
  drain ();
  { executions = !executions; primary = !primary; rounds_used = !rounds_used }

let random_rounds ~rng ~n ~count ~prob =
  (* Upper bound on rounds needed: each processor needs n active rounds;
     generate lazily until everyone would have finished, by budgeting the
     slowest processor. *)
  let remaining = Array.make count n in
  let acc = ref [] in
  let anyone_left () = Array.exists (fun r -> r > 0) remaining in
  while anyone_left () do
    let round = ref [] in
    for u = count - 1 downto 0 do
      if remaining.(u) > 0 && Rng.chance rng prob then begin
        round := u :: !round;
        remaining.(u) <- remaining.(u) - 1
      end
    done;
    (* Avoid infinite loops at tiny prob: force the first laggard. *)
    if !round = [] then begin
      let rec first u =
        if u >= count then ()
        else if remaining.(u) > 0 then begin
          round := [ u ];
          remaining.(u) <- remaining.(u) - 1
        end
        else first (u + 1)
      in
      first 0
    end;
    acc := !round :: !acc
  done;
  List.rev !acc

let adversarial_rounds ~psi =
  let scheds = Array.of_list (List.map Perm.to_array psi) in
  let count = Array.length scheds in
  let n = if count = 0 then 0 else Array.length scheds.(0) in
  let pos = Array.make count 0 in
  let completed = Array.make n false in
  let acc = ref [] in
  let remaining = ref (count * n) in
  while !remaining > 0 do
    (* Prefer a processor whose next job is already completed (it will
       burn a redundant, secondary execution); otherwise the processor
       with the fewest remaining jobs (finish schedules asap so later
       primaries concentrate). *)
    let pick = ref (-1) in
    for u = count - 1 downto 0 do
      if pos.(u) < n && completed.(scheds.(u).(pos.(u))) then pick := u
    done;
    if !pick < 0 then begin
      let best = ref max_int in
      for u = count - 1 downto 0 do
        if pos.(u) < n && n - pos.(u) < !best then begin
          best := n - pos.(u);
          pick := u
        end
      done
    end;
    let u = !pick in
    completed.(scheds.(u).(pos.(u))) <- true;
    pos.(u) <- pos.(u) + 1;
    decr remaining;
    acc := [ u ] :: !acc
  done;
  List.rev !acc

let make ~psi () : Algorithm.packed =
  let scheds = Array.of_list (List.map Perm.to_array psi) in
  if Array.length scheds = 0 then invalid_arg "Oblido.make: empty psi";
  (module struct
    let name = "oblido"

    type msg = unit

    type state = {
      part : Task.partition;
      sched : int array;
      know : Bitset.t; (* own performances only: no communication *)
      mutable job_idx : int;
      mutable halted : bool;
    }

    let init (cfg : Config.t) ~pid =
      let part = Task.make ~p:cfg.p ~t:cfg.t in
      let sched = scheds.(pid mod Array.length scheds) in
      if Array.length sched <> part.Task.n then
        invalid_arg "Oblido.make: schedule size must be min(p, t)";
      {
        part;
        sched;
        know = Bitset.create cfg.t;
        job_idx = 0;
        halted = false;
      }

    let copy st = { st with know = Bitset.copy st.know }
    let receive _ ~src:_ () = ()

    (* Oblivious: never broadcasts, so there is nothing to digest. *)
    let merge_homomorphic = None
    let is_done st = Bitset.is_full st.know
    let done_tasks st = st.know

    let step st =
      if st.halted then Algorithm.nothing
      else if st.job_idx >= Array.length st.sched then begin
        st.halted <- true;
        Algorithm.result ~halt:true ()
      end
      else begin
        let job = st.sched.(st.job_idx) in
        match Task.next_member st.part st.know job with
        | Some z ->
          Bitset.set st.know z;
          if Task.job_done st.part st.know job then
            st.job_idx <- st.job_idx + 1;
          Algorithm.result ~performed:z ()
        | None ->
          st.job_idx <- st.job_idx + 1;
          Algorithm.nothing
      end
  end)
