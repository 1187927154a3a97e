open Doall_sim

type t = Adversary.oracle -> int list
type restart = Adversary.oracle -> int list

let at_time ~time ~pids (o : Adversary.oracle) =
  if o.time () = time then pids else []

(* The pids from [pid] up that crash this tick, in ascending order. One
   draw per live pid regardless of the survivor filter, so changing
   [survivor] never shifts the RNG stream of later draws; each draw is
   made before the recursive call, and only hits are consed. *)
let rec doomed (o : Adversary.oracle) ~survivor ~rate pid =
  if pid >= o.p then []
  else
    let hit = o.alive pid && Rng.chance o.rng rate in
    if hit && pid <> survivor then pid :: doomed o ~survivor ~rate (pid + 1)
    else doomed o ~survivor ~rate (pid + 1)

let poisson ?(survivor = 0) ~rate (o : Adversary.oracle) =
  doomed o ~survivor ~rate 0

let staggered ~every (o : Adversary.oracle) =
  if every < 1 then invalid_arg "Crash.staggered: every >= 1";
  if o.time () mod every = 0 && o.time () > 0 then begin
    let rec lowest pid =
      if pid >= o.p then []
      else if o.alive pid then [ pid ]
      else lowest (pid + 1)
    in
    lowest 0
  end
  else []

(* The pids up to [pid] that [hit] names, in ascending order ahead of
   [acc]: built from the top down, so only the returned cons cells are
   allocated. *)
let rec matching hit (o : Adversary.oracle) now pid acc =
  if pid < 0 then acc
  else matching hit o now (pid - 1) (if hit o now pid then pid :: acc else acc)

let flaky ?(survivor = 0) ~up ~down () =
  if up < 1 || down < 1 then invalid_arg "Crash.flaky: up, down >= 1";
  let cycle = up + down in
  (* pid offsets stagger the phases so the system is never all-down;
     [survivor] opts out of the cycle entirely, keeping liveness
     trivially intact whatever [up]/[down] are. *)
  let should_be_up now pid =
    pid = survivor || (now + (pid * down)) mod cycle < up
  in
  let going_down (o : Adversary.oracle) now pid =
    pid <> survivor && o.alive pid && not (should_be_up now pid)
  in
  let coming_up (o : Adversary.oracle) now pid =
    (not (o.alive pid)) && should_be_up now pid
  in
  ( (fun o -> matching going_down o (o.time ()) (o.p - 1) []),
    fun o -> matching coming_up o (o.time ()) (o.p - 1) [] )
