open Doall_sim

type internal = {
  mutable stage_end : int;
  mutable delayed : bool array; (* delayed-until-stage-end flags *)
  mutable history : (int * int * int list) list;
  sel : Least_covered.t; (* J_s: coverage and membership per task *)
}

let stage_length (o : Adversary.oracle) = max 1 (min o.d (max 1 (o.t / 6)))

let pick_js selection st (o : Adversary.oracle) =
  let now = o.time () in
  let delta = stage_length o in
  st.stage_end <- now + delta;
  st.delayed <- Array.make o.p false;
  let undone = o.undone () in
  let us = List.length undone in
  let js_size = max 1 (us / (delta + 1)) in
  let js_list =
    match selection with
    | `Random ->
      let js =
        if us = 0 then []
        else begin
          let arr = Array.of_list undone in
          Rng.shuffle o.rng arr;
          Array.to_list (Array.sub arr 0 (min js_size (Array.length arr)))
        end
      in
      Least_covered.set_members st.sel ~tasks:o.t js;
      js
    | `Coverage ->
      let plans =
        Array.init o.p (fun pid ->
            if us > 0 && o.alive pid && not (o.halted pid) then
              o.plan ~pid ~horizon:delta
            else [])
      in
      Least_covered.least_covered st.sel ~tasks:o.t ~undone ~plans js_size
  in
  if us > 0 then begin
    st.history <- (now, us, js_list) :: st.history;
    o.note
      (Printf.sprintf "stage@%d: u_s=%d delta=%d |J_s|=%d" now us delta
         (List.length js_list))
  end

(* Like Lb_deterministic's registry: an entry is keyed physically on
   the adversary's name string and dies with it, and the table is
   mutex-guarded because [create] is called from Runner.run_grid worker
   domains. The per-instance [internal] state stays single-owner; the id
   never reaches a metric. *)
module Registry = Ephemeron.K1.Make (struct
  type t = string

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let registry : internal Registry.t = Registry.create 8
let next_id = ref 0
let registry_mutex = Mutex.create ()

let create ?(selection = `Coverage) () =
  let st =
    {
      stage_end = 0;
      delayed = [||];
      history = [];
      sel = Least_covered.create ();
    }
  in
  let key =
    Mutex.protect registry_mutex (fun () ->
        incr next_id;
        let key = Printf.sprintf "lb-rand-%d" !next_id in
        Registry.replace registry key st;
        key)
  in
  let schedule (o : Adversary.oracle) =
    if o.time () >= st.stage_end then begin
      if o.time () = 0 then st.history <- [];
      pick_js selection st o
    end;
    if Array.length st.delayed <> o.p then st.delayed <- Array.make o.p false;
    (* Online rule: the moment a processor selects a J_s task, delay it
       for the rest of the stage. *)
    Array.init o.p (fun pid ->
        if st.delayed.(pid) then false
        else if not (o.alive pid) || o.halted pid then false
        else
          match o.would_perform pid with
          | Some task when Least_covered.mem st.sel task ->
            st.delayed.(pid) <- true;
            false
          | Some _ | None -> true)
  in
  let delay (o : Adversary.oracle) ~src:_ ~dst:_ =
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
