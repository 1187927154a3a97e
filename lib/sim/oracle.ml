type violation = {
  time : int;
  pid : int option;
  invariant : string;
  detail : string;
}

exception Invariant_violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "invariant %S violated at t=%d%s: %s" v.invariant v.time
    (match v.pid with None -> "" | Some pid -> Printf.sprintf " (pid %d)" pid)
    v.detail

let () =
  Printexc.register_printer (function
    | Invariant_violation v ->
      Some (Format.asprintf "Oracle.Invariant_violation: %a" pp_violation v)
    | _ -> None)

type view = {
  time : unit -> int;
  p : int;
  t : int;
  global_done : Bitset.t;
  local_done : int -> Bitset.t;
  halted : int -> bool;
  live : unit -> int;
  finished : unit -> bool;
}

type t = {
  (* The ledger as of the last tick, a live set of its own that each
     tick ORs the ledger into after the monotonicity check. Reading the
     ledger through [union_into] leaves its chunks owned by the ledger,
     so the engine keeps writing them in place; a [Bitset.copy] would
     disown them all. [None] before the first tick, when an empty set
     stands in. *)
  mutable prev_done : Bitset.t option;
  mutable ticks : int;
}

let create () = { prev_done = None; ticks = 0 }

(* Everything below that builds a string, an option or a closure runs
   only on a failure branch: a healthy check allocates nothing. *)
let[@inline never] fail ~time ?pid ~invariant detail =
  raise (Invariant_violation { time; pid; invariant; detail })

exception Offender of int

(* [sub ⊄ super] has been established by {!Bitset.subset}, the
   word-at-a-time test; name the first bit set in [sub] but not in
   [super] (an O(t) scan) and raise. *)
let[@inline never] subset_failure ~time ?pid ~invariant ~sub ~super ~what
    ~ledger () =
  let task =
    try
      Bitset.iter_set sub (fun i ->
          if not (Bitset.mem super i) then raise (Offender i));
      -1
    with Offender i -> i
  in
  fail ~time ?pid ~invariant
    (Printf.sprintf "%s claims task %d done but it is not in %s" what task
       ledger)

let check_tick t view =
  t.ticks <- t.ticks + 1;
  let time = view.time () and live = view.live () in
  (* survivor: the model guarantees at least one live processor. *)
  if live < 1 then
    fail ~time ~invariant:"survivor"
      (Printf.sprintf "no processor alive (live=%d)" live);
  (* monotone-global-done: performed tasks are never un-performed. Once
     [prev ⊆ global_done] holds, [prev ∪ global_done] is the ledger. *)
  let prev =
    match t.prev_done with
    | Some prev -> prev
    | None ->
      let prev = Bitset.create (Bitset.length view.global_done) in
      t.prev_done <- Some prev;
      prev
  in
  if not (Bitset.subset prev view.global_done) then
    subset_failure ~time ~invariant:"monotone-global-done"
      ~sub:prev ~super:view.global_done ~what:"previous tick"
      ~ledger:"the current ledger (a done task was un-done)" ();
  Bitset.union_into ~dst:prev view.global_done;
  (* local-within-global: knowledge may lag reality, never outrun it. *)
  for pid = 0 to view.p - 1 do
    let local = view.local_done pid in
    if not (Bitset.subset local view.global_done) then
      subset_failure ~time ~pid ~invariant:"local-within-global"
        ~sub:local ~super:view.global_done
        ~what:(Printf.sprintf "pid %d" pid) ~ledger:"the global ledger" ();
    (* halted-knows-all: halting is a terminal claim of completion. *)
    if view.halted pid && not (Bitset.is_full local) then
      fail ~time ~pid ~invariant:"halted-knows-all"
        (Printf.sprintf "halted with only %d/%d tasks known done"
           (Bitset.cardinal local) view.t)
  done;
  (* termination-complete: Definition 2.1. *)
  if view.finished () && not (Bitset.is_full view.global_done) then
    fail ~time ~invariant:"termination-complete"
      (Printf.sprintf "run reported finished with %d/%d tasks done"
         (Bitset.cardinal view.global_done)
         view.t)

let check_step ~time ~pid ~alive =
  if not alive then
    fail ~time ~pid ~invariant:"step-by-crashed"
      "a crashed processor took a step"

let ticks_checked t = t.ticks
