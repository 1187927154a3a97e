(* See pool.mli.

   One shared FIFO of erased thunks guarded by a Mutex/Condition pair.
   Each batch writes into its own slot array, so the only cross-domain
   state is the queue and the per-batch remaining counter, both touched
   under [mutex]. A worker publishes a slot before taking the mutex to
   decrement [remaining]; the submitter reads slots only after observing
   [remaining = 0] under the same mutex, so the mutex's release/acquire
   ordering makes every slot write visible (no data race). *)

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : task Queue.t;
  completed : int array;
      (* tasks completed per domain slot: 0 = the submitting domain,
         1..jobs-1 = spawned workers. Each slot is written by exactly
         one domain (ints are immediate, so a concurrent read from
         [jobs_completed] observes a momentarily stale but well-formed
         count — fine for observability). *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  mutable shut : bool;
}

let default_jobs () = Domain.recommended_domain_count ()

let rec worker_loop pool slot =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.stop do
    Condition.wait pool.work_available pool.mutex
  done;
  match Queue.take_opt pool.queue with
  | None ->
    (* stop requested and the queue is drained *)
    Mutex.unlock pool.mutex
  | Some task ->
    Mutex.unlock pool.mutex;
    task ();
    pool.completed.(slot) <- pool.completed.(slot) + 1;
    worker_loop pool slot

let create ?jobs () =
  let jobs =
    Int.max 1 (match jobs with Some j -> j | None -> default_jobs ())
  in
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      completed = Array.make jobs 0;
      stop = false;
      workers = [||];
      shut = false;
    }
  in
  pool.workers <-
    Array.init (jobs - 1)
      (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

let jobs pool = pool.jobs

let queue_depth pool =
  Mutex.protect pool.mutex (fun () -> Queue.length pool.queue)

let jobs_completed pool = Array.copy pool.completed

(* Deterministic failure discipline: every element ran; re-raise the
   exception of the lowest-indexed failure, with its backtrace. *)
let collect results =
  let n = Array.length results in
  let rec first_error i =
    if i >= n then None
    else
      match results.(i) with
      | Error (e, bt) -> Some (e, bt)
      | Ok _ -> first_error (i + 1)
  in
  match first_error 0 with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.map (function Ok v -> v | Error _ -> assert false) results

let guarded f x =
  try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ())

let map_array pool f xs =
  if pool.shut then invalid_arg "Pool.map: pool is shut down";
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.jobs = 1 then
    collect
      (Array.map
         (fun x ->
           let r = guarded f x in
           pool.completed.(0) <- pool.completed.(0) + 1;
           r)
         xs)
  else begin
    let results = Array.make n None in
    (* batch-local; read and written only under [pool.mutex] *)
    let remaining = ref n in
    let batch_done = Condition.create () in
    let make_task i () =
      let r = guarded f xs.(i) in
      results.(i) <- Some r;
      Mutex.lock pool.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock pool.mutex
    in
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      Queue.add (make_task i) pool.queue
    done;
    Condition.broadcast pool.work_available;
    (* The submitter works the queue too (it may also pick up elements
       of a concurrent batch; they never block, so that is harmless). *)
    while !remaining > 0 do
      match Queue.take_opt pool.queue with
      | Some task ->
        Mutex.unlock pool.mutex;
        task ();
        pool.completed.(0) <- pool.completed.(0) + 1;
        Mutex.lock pool.mutex
      | None -> if !remaining > 0 then Condition.wait batch_done pool.mutex
    done;
    Mutex.unlock pool.mutex;
    collect (Array.map Option.get results)
  end

let map pool f xs = Array.to_list (map_array pool f (Array.of_list xs))

let shutdown pool =
  if not pool.shut then begin
    pool.shut <- true;
    Mutex.lock pool.mutex;
    pool.stop <- true;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers
  end

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run ?jobs f xs = with_pool ?jobs (fun pool -> map pool f xs)
