open Doall_sim

type internal = {
  mutable stage_end : int;
  mutable stage_len : int;
  mutable delayed : bool array;
  mutable history : (int * int * int list) list;
  sel : Least_covered.t; (* J_s: coverage and membership per task *)
}

let stage_length (o : Adversary.oracle) = max 1 (min o.d (o.t / 6))

let begin_stage st (o : Adversary.oracle) =
  let now = o.time () in
  let delta = stage_length o in
  st.stage_len <- delta;
  st.stage_end <- now + delta;
  let undone = o.undone () in
  let us = List.length undone in
  if us = 0 then st.delayed <- Array.make o.p false
  else begin
    (* J_s(i): tasks processor i would perform this stage in isolation;
       those outside U_s are ignored by the coverage count, and J_s lies
       inside U_s. *)
    let plans =
      Array.init o.p (fun pid ->
          if o.alive pid && not (o.halted pid) then
            o.plan ~pid ~horizon:delta
          else [])
    in
    let js =
      Least_covered.least_covered st.sel ~tasks:o.t ~undone ~plans
        (max 1 (us / (3 * delta)))
    in
    let delayed =
      Array.init o.p (fun pid ->
          List.exists (Least_covered.mem st.sel) plans.(pid))
    in
    st.delayed <- delayed;
    st.history <- (now, us, js) :: st.history;
    o.note
      (Printf.sprintf "stage@%d: u_s=%d delta=%d |J_s|=%d delayed=%d" now us
         delta (List.length js)
         (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 delayed))
  end

(* Keyed physically on the adversary's name string, through an
   ephemeron, so [stages_of] can retrieve diagnostics while the adversary
   is reachable and an entry dies with it. [create] runs from
   Runner.run_grid worker domains (one instantiation per run), so the
   registry and its id counter are mutex-guarded; the [internal] state
   itself is only ever touched by the one run that owns the adversary.
   The id only names the instance and never reaches any metric, so its
   allocation order is free to vary across parallel schedules. *)
module Registry = Ephemeron.K1.Make (struct
  type t = string

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let registry : internal Registry.t = Registry.create 8
let next_id = ref 0
let registry_mutex = Mutex.create ()

let create () =
  let st =
    {
      stage_end = 0;
      stage_len = 1;
      delayed = [||];
      history = [];
      sel = Least_covered.create ();
    }
  in
  let key =
    Mutex.protect registry_mutex (fun () ->
        incr next_id;
        let key = Printf.sprintf "lb-det-%d" !next_id in
        Registry.replace registry key st;
        key)
  in
  let schedule (o : Adversary.oracle) =
    if o.time () >= st.stage_end then begin
      if o.time () = 0 then st.history <- [];
      begin_stage st o
    end;
    if Array.length st.delayed <> o.p then st.delayed <- Array.make o.p false;
    Array.map not st.delayed
  in
  let delay (o : Adversary.oracle) ~src:_ ~dst:_ =
    (* Deliver at the end of the current stage. *)
    max 1 (st.stage_end - o.time ())
  in
  Adversary.make ~name:key ~schedule ~delay:(Adversary.Per_copy delay) ()

let stages_of (adv : Adversary.t) =
  match
    Mutex.protect registry_mutex (fun () ->
        Registry.find_opt registry adv.Adversary.name)
  with
  | Some st -> List.rev st.history
  | None -> []
