(* See span.mli.

   Same shape as Probe: each span caches the profiler's immutable
   [enabled] flag at registration, so enter/leave on a disabled
   profiler is one branch — the clock is only read when enabled. The
   registry hashtable is touched at registration and snapshot time,
   never between enter and leave.

   The clock is CLOCK_MONOTONIC nanoseconds as an untagged int through
   a noalloc C stub (doall_clock.c): ~20ns and zero allocation per
   read, which is what keeps per-step phase bracketing cheap (the < 5%
   overhead target and its measurements are in docs/OBSERVABILITY.md). *)

external mono_ns : unit -> (int[@untagged])
  = "doall_mono_ns_byte" "doall_mono_ns_unboxed"
[@@noalloc]

type span = {
  sp_on : bool;
  mutable sp_total : int; (* accumulated nanoseconds *)
  mutable sp_count : int; (* completed enter/leave pairs *)
  mutable sp_t0 : int; (* enter timestamp; [closed] when idle *)
}

(* Sentinel for "no section open": the monotonic clock never goes
   negative, so a leave without a matching enter is detectable. *)
let closed = -1

type t = { enabled : bool; spans : (string, span) Hashtbl.t }

let create ?(enabled = true) () = { enabled; spans = Hashtbl.create 8 }
let enabled t = t.enabled

let span t name =
  match Hashtbl.find_opt t.spans name with
  | Some sp -> sp
  | None ->
    let sp = { sp_on = t.enabled; sp_total = 0; sp_count = 0; sp_t0 = closed }
    in
    Hashtbl.add t.spans name sp;
    sp

let[@inline] enter sp = if sp.sp_on then sp.sp_t0 <- mono_ns ()

let[@inline] leave sp =
  if sp.sp_on && sp.sp_t0 >= 0 then begin
    sp.sp_total <- sp.sp_total + (mono_ns () - sp.sp_t0);
    sp.sp_count <- sp.sp_count + 1;
    sp.sp_t0 <- closed
  end

let[@inline] shift a b =
  if a.sp_on || b.sp_on then begin
    let now = mono_ns () in
    if a.sp_on && a.sp_t0 >= 0 then begin
      a.sp_total <- a.sp_total + (now - a.sp_t0);
      a.sp_count <- a.sp_count + 1;
      a.sp_t0 <- closed
    end;
    if b.sp_on then b.sp_t0 <- now
  end

let time sp f =
  enter sp;
  Fun.protect ~finally:(fun () -> leave sp) f

type snapshot = (string * (float * int)) list

let snapshot t =
  Hashtbl.fold
    (fun name sp acc ->
      (name, (float_of_int sp.sp_total /. 1e9, sp.sp_count)) :: acc)
    t.spans []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total snap = List.fold_left (fun acc (_, (s, _)) -> acc +. s) 0.0 snap
