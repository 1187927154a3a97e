(* Host-side measurement: the correctness gate, set-up timing, timed
   batches with their CPU and allocation deltas, and peak RSS. *)

open Doall_sim
open Doall_core

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* Shared hosts drift: other tenants slow the same code by up to 1.8x
   for minutes at a time (CALIBRATION.md). So a run also times a fixed
   computation that no change to the simulator can touch, next to what
   it measures and on as many domains, and reports its times in
   reference seconds: host seconds scaled by [reference_s] over the
   median time of that computation. On a host where one domain runs it
   in [reference_s], reference and host seconds agree. *)
let reference_s = 0.05

(* Short-lived allocation streamed through the minor heap, the
   simulator's own hot path: other tenants slow it the way they slow
   the workloads, more than they slow cache-resident array writes
   (CALIBRATION.md). *)
let reference_work () =
  let l = ref [] in
  for i = 1 to 12_000_000 do
    l := (i, i) :: !l;
    if i land 4095 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l)

(* Seconds [jobs] domains take to do [reference_work] side by side. *)
let time_reference ~jobs =
  let t0 = now () in
  let others = List.init (jobs - 1) (fun _ -> Domain.spawn reference_work) in
  reference_work ();
  List.iter Domain.join others;
  now () -. t0

(* Reference seconds per host second, from the times of
   [time_reference]. *)
let speed_factor times = reference_s /. Stats.median times

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)

(* order-sensitive fingerprint of the per-processor work vector, as in
   test/test_golden_grid.ml *)
let hash_array a =
  Array.fold_left (fun acc w -> (acc * 1000003) lxor w) 0 a land 0x3FFFFFFF

type fingerprint = int * int * int * int * int
(** W, M, sigma, executions, per-processor work hash *)

let fingerprint (m : Metrics.t) : fingerprint =
  (m.work, m.messages, m.sigma, m.executions, hash_array m.per_proc_work)

let pins =
  let tbl = Hashtbl.create 512 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) Pins.table;
  tbl

type gate = {
  seen : (string, fingerprint) Hashtbl.t;
      (** the first result of each cell in this run *)
  mutable attempted : int;
  mutable failed : int;
}

let gate () = { seen = Hashtbl.create 512; attempted = 0; failed = 0 }

let fail g name why =
  g.failed <- g.failed + 1;
  Printf.eprintf "FAILED %s: %s\n%!" name why

(* A cell fails if it raised, hit its cap, differs from its pin, or
   differs from its first result in this run (another repetition, or
   the untraced run when this one is traced). [also] adds a check of
   its own, returning what is wrong. *)
let check ?(also = fun _ -> None) g (spec : Runner.run_spec)
    (outcome : (Metrics.t, exn) result) =
  let name = Runner.spec_name spec in
  g.attempted <- g.attempted + 1;
  match outcome with
  | Error e -> fail g name (Printexc.to_string e)
  | Ok m when not m.Metrics.completed -> fail g name "hit the time cap"
  | Ok m when also m <> None -> fail g name (Option.get (also m))
  | Ok m -> (
    let fp = fingerprint m in
    let differs (w, msgs, sigma, ex, h) =
      Printf.sprintf "(W, M, sigma, exec, hash) = (%d, %d, %d, %d, %d), %s"
        m.work m.messages m.sigma m.executions (hash_array m.per_proc_work)
        (Printf.sprintf "expected (%d, %d, %d, %d, %d)" w msgs sigma ex h)
    in
    match (Hashtbl.find_opt pins name, Hashtbl.find_opt g.seen name) with
    | Some pin, _ when pin <> fp -> fail g name ("pin: " ^ differs pin)
    | _, Some first when first <> fp ->
      fail g name ("repetition: " ^ differs first)
    | _, Some _ -> ()
    | _, None -> Hashtbl.replace g.seen name fp)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* Registry installation plus the first [make ()] of every algorithm of
   the workload (the DA(q) list search is memoized there). Returns
   (install seconds, make seconds). *)
let setup algos =
  let t0 = now () in
  Doall_quorum.Register.install ();
  let t1 = now () in
  List.iter (fun a -> ignore ((Runner.find_algo a).Runner.make ())) algos;
  (t1 -. t0, now () -. t1)

(* The memos set-up fills cannot be emptied, so each extra sample runs
   in a forked child, which starts from the parent's pristine state.
   Must be called before any domain is spawned. *)
let forked_setup algos =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let install, make = setup algos in
        let msg = Printf.sprintf "%h\n" (install +. make) in
        ignore (Unix.write_substring wr msg 0 (String.length msg));
        0
      with _ -> 2
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    (match (snd (Unix.waitpid [] pid), line) with
     | Unix.WEXITED 0, Some l -> float_of_string l
     | _ -> failwith "set-up failed in a forked sample")

(* ------------------------------------------------------------------ *)
(* Timed batches                                                       *)

type sample = {
  wall : float;
  cpu_s : float;
  gc : Gc.stat * Gc.stat;  (** before, after *)
}

(* Runs [f pool cells] on a fresh pool of [jobs] domains. Compaction
   happens first and outside the timing; the GC counters are read after
   the pool has shut down, so worker domains are folded in. *)
let batch ~jobs f cells =
  Gc.compact ();
  let pool = Pool.create ~jobs () in
  let g0 = Gc.quick_stat () in
  let c0 = cpu () and t0 = now () in
  let out = try Ok (f pool cells) with e -> Error e in
  let t1 = now () and c1 = cpu () in
  Pool.shutdown pool;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  (out, { wall = t1 -. t0; cpu_s = c1 -. c0; gc = (g0, g1) })

(* Words allocated on the minor heap. Blocks allocated directly in the
   major heap are left out: OCaml 5.1 folds them into [major_words] only
   as major slices run, so that counter differs by up to 2% between
   identical repetitions, while [minor_words] repeats exactly. *)
let alloc_words { gc = g0, g1; _ } = g1.Gc.minor_words -. g0.Gc.minor_words

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find
