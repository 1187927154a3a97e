open Doall_sim

type t = Adversary.oracle -> int list
type restart = Adversary.oracle -> int list

let at_time ~time ~pids (o : Adversary.oracle) =
  if o.time () = time then pids else []

let poisson ?(survivor = 0) ~rate (o : Adversary.oracle) =
  (* One draw per pid regardless of the survivor filter, so changing
     [survivor] never shifts the RNG stream of later draws. *)
  List.filter
    (fun pid ->
      let doomed = o.alive pid && Rng.float o.rng 1.0 < rate in
      doomed && pid <> survivor)
    (List.init o.p Fun.id)

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

let flaky ?(survivor = 0) ~up ~down () =
  if up < 1 || down < 1 then invalid_arg "Crash.flaky: up, down >= 1";
  let cycle = up + down in
  (* pid offsets stagger the phases so the system is never all-down;
     [survivor] opts out of the cycle entirely, keeping liveness
     trivially intact whatever [up]/[down] are. *)
  let should_be_up (o : Adversary.oracle) pid =
    pid = survivor || (o.time () + (pid * down)) mod cycle < up
  in
  let crash (o : Adversary.oracle) =
    List.filter
      (fun pid ->
        pid <> survivor && o.alive pid && not (should_be_up o pid))
      (List.init o.p Fun.id)
  in
  let restart (o : Adversary.oracle) =
    List.filter
      (fun pid -> (not (o.alive pid)) && should_be_up o pid)
      (List.init o.p Fun.id)
  in
  (crash, restart)
