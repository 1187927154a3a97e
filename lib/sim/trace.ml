type event =
  | Step of { time : int; pid : int }
  | Delayed of { time : int; pid : int }
  | Perform of { time : int; pid : int; task : int; fresh : bool }
  | Broadcast of { time : int; src : int; copies : int }
  | Halt of { time : int; pid : int }
  | Crash of { time : int; pid : int }
  | Restart of { time : int; pid : int }
  | Note of { time : int; text : string }

(* Growable array in recording order: O(1) amortized add, and the
   consumers (fold/iter/timeline, JSONL export) traverse in place —
   the old list representation forced an O(n) reversal copy at every
   traversal. *)
type t = { mutable events : event array; mutable length : int }

let create () = { events = [||]; length = 0 }

let dummy = Step { time = 0; pid = 0 }

let add t ev =
  let cap = Array.length t.events in
  if t.length = cap then begin
    let grown = Array.make (Int.max 256 (2 * cap)) dummy in
    Array.blit t.events 0 grown 0 t.length;
    t.events <- grown
  end;
  t.events.(t.length) <- ev;
  t.length <- t.length + 1

let length t = t.length

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.length - 1 do
    acc := f !acc t.events.(i)
  done;
  !acc

let iter t f = fold t ~init:() ~f:(fun () ev -> f ev)

let timeline t ~p ~until =
  let grid = Array.init p (fun _ -> Bytes.make until ' ') in
  let put time pid c =
    if time >= 0 && time < until && pid >= 0 && pid < p then
      Bytes.set grid.(pid) time c
  in
  let crashed_at = Array.make p max_int in
  let halted_at = Array.make p max_int in
  (* a restart mark survives the same-tick step that follows it: the
     engine restarts at tick start, so the pid usually also steps at
     that very time, and 'R' is the rarer, more informative mark *)
  let put_unless_restart time pid c =
    if
      not
        (time >= 0 && time < until && pid >= 0 && pid < p
        && Bytes.get grid.(pid) time = 'R')
    then put time pid c
  in
  iter t (fun ev ->
      match ev with
      | Step { time; pid } ->
        (* only mark if no richer mark present *)
        if time < until && Bytes.get grid.(pid) time = ' ' then put time pid 'o'
      | Perform { time; pid; _ } -> put_unless_restart time pid '#'
      | Delayed { time; pid } -> put_unless_restart time pid '.'
      | Halt { time; pid } ->
        put time pid 'H';
        if time < halted_at.(pid) then halted_at.(pid) <- time
      | Crash { time; pid } ->
        put time pid 'X';
        if time < crashed_at.(pid) then crashed_at.(pid) <- time
      | Restart { time; pid } ->
        put time pid 'R';
        (* back from the dead: stop extending the crash marker *)
        crashed_at.(pid) <- max_int
      | Broadcast _ | Note _ -> ());
  (* Extend crash / halt markers to the right for readability. *)
  Array.iteri (fun pid row ->
      let from = Int.min crashed_at.(pid) halted_at.(pid) in
      if from < until then
        for time = from + 1 to until - 1 do
          if Bytes.get row time = ' ' then
            Bytes.set row time (if crashed_at.(pid) <= time then 'x' else 'h')
        done)
    grid;
  Array.map Bytes.to_string grid

let pp_timeline ppf (t, p, until) =
  let rows = timeline t ~p ~until in
  Array.iteri
    (fun pid row -> Format.fprintf ppf "p%-3d |%s|@." pid row)
    rows
