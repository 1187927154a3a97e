open Doall_sim

type sched =
  | S_all
  | S_solo of int
  | S_rr of int
  | S_random of float
  | S_harmonic
  | S_laggard

type delay =
  | D_const of int
  | D_max
  | D_uniform
  | D_bimodal of float
  | D_stage of int
  | D_partition of int
  | D_target of int
  | D_churn of int * int

type crash =
  | C_none
  | C_at of int * int * int
  | C_staggered of int
  | C_poisson of float
  | C_flaky of int * int

type fault = F_drop of float | F_dup of float * int | F_reorder of float

type chan =
  | Ch_none
  | Ch_ordered of int
  | Ch_delayed of int
  | Ch_both of int * int

type phase = {
  sched : sched;
  delay : delay;
  crash : crash;
  faults : fault list;
  chan : chan;
  lasts : int option;
}

type t = phase list

type space = Full | Live | In_model | Quorum_safe

let space_to_string = function
  | Full -> "full"
  | Live -> "live"
  | In_model -> "in-model"
  | Quorum_safe -> "quorum-safe"

let space_of_string = function
  | "full" -> Ok Full
  | "live" -> Ok Live
  | "in-model" | "in_model" | "model" -> Ok In_model
  | "quorum-safe" | "quorum_safe" -> Ok Quorum_safe
  | s ->
    Error
      (Printf.sprintf "unknown space %S (full|live|in-model|quorum-safe)" s)

(* map with a guaranteed left-to-right application order (List.map's is
   unspecified); gene walking and RNG-drawing rewrites depend on it *)
let rec map_seq f = function
  | [] -> []
  | x :: rest ->
    let y = f x in
    y :: map_seq f rest

let mapi_seq f l =
  let i = ref (-1) in
  map_seq (fun x -> incr i; f !i x) l

let rec init_seq n f i = if i >= n then [] else
  let x = f i in
  x :: init_seq n f (i + 1)

let init_seq n f = init_seq n f 0

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ---- normalization ---- *)

let max_phases = 4
let max_faults = 3

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

(* upper bound of the genes an instance's p, t or d sizes (window width,
   stage and churn lengths, crash time and count, flaky periods): beyond
   any instance, so a spec sized from p/t/d is never silently rewritten *)
let max_sized = 1 lsl 30

(* quantize to 3 decimals so that %g printing round-trips exactly *)
let quant3 x = Float.of_int (int_of_float ((x *. 1000.) +. 0.5)) /. 1000.
let norm_prob x = quant3 (clamp 0.0 1.0 x)

let norm_sched = function
  | S_all -> S_all
  | S_solo pid -> S_solo (clamp 0 4095 pid)
  | S_rr w -> S_rr (clamp 1 max_sized w)
  | S_random pr -> S_random (norm_prob pr)
  | S_harmonic -> S_harmonic
  | S_laggard -> S_laggard

let norm_delay = function
  | D_const k -> D_const (clamp 1 4096 k)
  | D_max -> D_max
  | D_uniform -> D_uniform
  | D_bimodal pr -> D_bimodal (norm_prob pr)
  | D_stage k -> D_stage (clamp 1 max_sized k)
  | D_partition k -> D_partition (clamp 2 64 k)
  | D_target m -> D_target (clamp 2 64 m)
  | D_churn (a, b) -> D_churn (clamp 1 max_sized a, clamp 1 max_sized b)

let norm_crash = function
  | C_none -> C_none
  | C_at (tm, n, s) ->
    C_at (clamp 0 max_sized tm, clamp 0 max_sized n, clamp 1 64 s)
  | C_staggered e -> C_staggered (clamp 1 1_000_000 e)
  | C_poisson r -> C_poisson (quant3 (clamp 0.0 0.5 r))
  | C_flaky (u, dn) -> C_flaky (clamp 1 max_sized u, clamp 1 max_sized dn)

let norm_fault = function
  | F_drop pr -> F_drop (norm_prob pr)
  | F_dup (pr, n) -> F_dup (norm_prob pr, clamp 1 8 n)
  | F_reorder pr -> F_reorder (norm_prob pr)

let norm_chan = function
  | Ch_none -> Ch_none
  | Ch_ordered k -> Ch_ordered (clamp 0 4095 k)
  | Ch_delayed cap -> Ch_delayed (clamp 1 4096 cap)
  | Ch_both (cap, k) -> Ch_both (clamp 1 4096 cap, clamp 0 4095 k)

let fair_phase =
  { sched = S_all; delay = D_const 1; crash = C_none; faults = [];
    chan = Ch_none; lasts = None }

let norm_phase ~last ph =
  {
    sched = norm_sched ph.sched;
    delay = norm_delay ph.delay;
    crash = norm_crash ph.crash;
    faults = map_seq norm_fault (take max_faults ph.faults);
    chan = norm_chan ph.chan;
    lasts =
      (if last then None
       else
         Some
           (match ph.lasts with
           | None -> 1
           | Some n -> clamp 1 1_000_000 n));
  }

let make phases =
  match take max_phases phases with
  | [] -> [ fair_phase ]
  | phases ->
    let n = List.length phases in
    mapi_seq (fun i ph -> norm_phase ~last:(i = n - 1) ph) phases

let phase ?(sched = S_all) ?(delay = D_const 1) ?(crash = C_none)
    ?(faults = []) ?(chan = Ch_none) ?lasts () =
  { sched; delay; crash; faults; chan; lasts }

(* ---- printing ---- *)

let fg = Printf.sprintf "%g"

let sched_to_string = function
  | S_all -> "all"
  | S_solo pid -> Printf.sprintf "solo:%d" pid
  | S_rr w -> Printf.sprintf "rr:%d" w
  | S_random pr -> "random:" ^ fg pr
  | S_harmonic -> "harmonic"
  | S_laggard -> "laggard"

let delay_to_string = function
  | D_const k -> Printf.sprintf "const:%d" k
  | D_max -> "max"
  | D_uniform -> "uniform"
  | D_bimodal pr -> "bimodal:" ^ fg pr
  | D_stage k -> Printf.sprintf "stage:%d" k
  | D_partition k -> Printf.sprintf "partition:%d" k
  | D_target m -> Printf.sprintf "target:%d" m
  | D_churn (a, b) -> Printf.sprintf "churn:%d:%d" a b

let crash_to_string = function
  | C_none -> "none"
  | C_at (tm, n, s) -> Printf.sprintf "at:%d:%d:%d" tm n s
  | C_staggered e -> Printf.sprintf "staggered:%d" e
  | C_poisson r -> "poisson:" ^ fg r
  | C_flaky (u, dn) -> Printf.sprintf "flaky:%d:%d" u dn

let fault_to_string = function
  | F_drop pr -> "drop:" ^ fg pr
  | F_dup (pr, n) -> Printf.sprintf "dup:%s:%d" (fg pr) n
  | F_reorder pr -> "reorder:" ^ fg pr

let chan_to_string = function
  | Ch_none -> "none"
  | Ch_ordered k -> Printf.sprintf "ordered:%d" k
  | Ch_delayed cap -> Printf.sprintf "delayed:%d" cap
  | Ch_both (cap, k) -> Printf.sprintf "both:%d:%d" cap k

let phase_to_string ph =
  String.concat ";"
    (("sched=" ^ sched_to_string ph.sched)
     :: ("delay=" ^ delay_to_string ph.delay)
     :: ((match ph.crash with
         | C_none -> []
         | c -> [ "crash=" ^ crash_to_string c ])
        @ map_seq (fun f -> "fault=" ^ fault_to_string f) ph.faults
        @ (match ph.chan with
          | Ch_none -> []
          | c -> [ "chan=" ^ chan_to_string c ])
        @ match ph.lasts with
          | None -> []
          | Some n -> [ Printf.sprintf "for=%d" n ]))

let to_spec t = String.concat "|" (List.map phase_to_string (make t))

(* ---- parsing ---- *)

let usage =
  "strategy spec is up to 4 phases separated by '|'; each phase is \
   ';'-separated fields: sched=all|solo:PID|rr:WIDTH|random:PROB|harmonic\
   |laggard, delay=const:K|max|uniform|bimodal:PROB|stage:K|partition:N\
   |target:M|churn:CALM:STORM, crash=none|at:TIME:COUNT:STRIDE\
   |staggered:EVERY|poisson:RATE|flaky:UP:DOWN, fault=drop:PROB\
   |dup:PROB:COPIES|reorder:PROB (repeatable), \
   chan=ordered:K|delayed:CAP|both:CAP:K (shared-channel contention \
   rules; inert on point-to-point runs), for=TICKS (phase duration; the \
   last phase runs forever). Example: \
   \"sched=laggard;delay=max;fault=drop:0.5;for=64|sched=all;delay=const:1\""

let err fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

let parse_int s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> err "bad integer %S" s

(* finite only: a NaN passes every clamp unchanged *)
let parse_float s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> Ok x
  | Some _ | None -> err "bad number %S" s

let parse_sched v =
  match String.split_on_char ':' v with
  | [ "all" ] -> Ok S_all
  | [ "solo"; k ] ->
    let* k = parse_int k in
    Ok (S_solo k)
  | [ "rr"; w ] ->
    let* w = parse_int w in
    Ok (S_rr w)
  | [ "random"; pr ] ->
    let* pr = parse_float pr in
    Ok (S_random pr)
  | [ "harmonic" ] -> Ok S_harmonic
  | [ "laggard" ] -> Ok S_laggard
  | _ -> err "bad sched rule %S" v

let parse_delay v =
  match String.split_on_char ':' v with
  | [ "const"; k ] ->
    let* k = parse_int k in
    Ok (D_const k)
  | [ "max" ] -> Ok D_max
  | [ "uniform" ] -> Ok D_uniform
  | [ "bimodal"; pr ] ->
    let* pr = parse_float pr in
    Ok (D_bimodal pr)
  | [ "stage"; k ] ->
    let* k = parse_int k in
    Ok (D_stage k)
  | [ "partition"; k ] ->
    let* k = parse_int k in
    Ok (D_partition k)
  | [ "target"; m ] ->
    let* m = parse_int m in
    Ok (D_target m)
  | [ "churn"; a; b ] ->
    let* a = parse_int a in
    let* b = parse_int b in
    Ok (D_churn (a, b))
  | _ -> err "bad delay rule %S" v

let parse_crash v =
  match String.split_on_char ':' v with
  | [ "none" ] -> Ok C_none
  | [ "at"; tm; n; s ] ->
    let* tm = parse_int tm in
    let* n = parse_int n in
    let* s = parse_int s in
    Ok (C_at (tm, n, s))
  | [ "staggered"; e ] ->
    let* e = parse_int e in
    Ok (C_staggered e)
  | [ "poisson"; r ] ->
    let* r = parse_float r in
    Ok (C_poisson r)
  | [ "flaky"; u; dn ] ->
    let* u = parse_int u in
    let* dn = parse_int dn in
    Ok (C_flaky (u, dn))
  | _ -> err "bad crash rule %S" v

let parse_fault v =
  match String.split_on_char ':' v with
  | [ "drop"; pr ] ->
    let* pr = parse_float pr in
    Ok (F_drop pr)
  | [ "dup"; pr; n ] ->
    let* pr = parse_float pr in
    let* n = parse_int n in
    Ok (F_dup (pr, n))
  | [ "reorder"; pr ] ->
    let* pr = parse_float pr in
    Ok (F_reorder pr)
  | _ -> err "bad fault rule %S" v

let parse_chan v =
  match String.split_on_char ':' v with
  | [ "none" ] -> Ok Ch_none
  | [ "ordered"; k ] ->
    let* k = parse_int k in
    Ok (Ch_ordered k)
  | [ "delayed"; cap ] ->
    let* cap = parse_int cap in
    Ok (Ch_delayed cap)
  | [ "both"; cap; k ] ->
    let* cap = parse_int cap in
    let* k = parse_int k in
    Ok (Ch_both (cap, k))
  | _ -> err "bad chan rule %S" v

let parse_phase s =
  let fields =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  if fields = [] then err "empty phase"
  else
    let rec go sched delay crash faults chan lasts = function
      | [] ->
        Ok
          {
            sched = Option.value sched ~default:S_all;
            delay = Option.value delay ~default:(D_const 1);
            crash = Option.value crash ~default:C_none;
            faults = List.rev faults;
            chan = Option.value chan ~default:Ch_none;
            lasts;
          }
      | f :: rest -> (
        match String.index_opt f '=' with
        | None -> err "field %S is not key=value" f
        | Some i -> (
          let key = String.sub f 0 i in
          let v = String.sub f (i + 1) (String.length f - i - 1) in
          match key with
          | "sched" ->
            if sched <> None then err "duplicate sched field"
            else
              let* r = parse_sched v in
              go (Some r) delay crash faults chan lasts rest
          | "delay" ->
            if delay <> None then err "duplicate delay field"
            else
              let* r = parse_delay v in
              go sched (Some r) crash faults chan lasts rest
          | "crash" ->
            if crash <> None then err "duplicate crash field"
            else
              let* r = parse_crash v in
              go sched delay (Some r) faults chan lasts rest
          | "fault" ->
            let* r = parse_fault v in
            go sched delay crash (r :: faults) chan lasts rest
          | "chan" ->
            if chan <> None then err "duplicate chan field"
            else
              let* r = parse_chan v in
              go sched delay crash faults (Some r) lasts rest
          | "for" ->
            if lasts <> None then err "duplicate for field"
            else
              let* n = parse_int v in
              if n < 1 then err "for=%d: duration must be >= 1" n
              else go sched delay crash faults chan (Some n) rest
          | _ -> err "unknown field %S" key))
    in
    go None None None [] None None fields

let of_spec spec =
  let phases = String.split_on_char '|' spec |> List.map String.trim in
  let rec go acc = function
    | [] -> Ok (make (List.rev acc))
    | s :: rest ->
      let* ph = parse_phase s in
      go (ph :: acc) rest
  in
  if phases = [] || List.exists (fun s -> s = "") phases then
    Error "empty phase in spec"
  else go [] phases

(* ---- compilation ---- *)

let has_faults t = List.exists (fun ph -> ph.faults <> []) t

let has_restart t =
  List.exists (fun ph -> match ph.crash with C_flaky _ -> true | _ -> false) t

let has_chan t = List.exists (fun ph -> ph.chan <> Ch_none) t

let compile_sched = function
  | S_all -> Schedule.all
  | S_solo pid -> fun (o : Adversary.oracle) -> Schedule.solo (pid mod o.p) o
  | S_rr w -> Schedule.round_robin ~width:w
  | S_random pr -> Schedule.random_subset ~prob:pr
  | S_harmonic -> Schedule.harmonic_speeds
  | S_laggard -> Schedule.adaptive_laggard

let compile_delay = function
  | D_const k -> Adversary.Constant k
  | D_max -> Delay.maximal
  | D_uniform -> Delay.uniform
  | D_bimodal pr -> Delay.bimodal ~slow_fraction:pr
  | D_stage k -> Delay.stage_batched ~stage_len:k
  | D_partition k -> Delay.partition ~cut:k
  | D_target m -> Delay.targeted ~victims:(fun pid -> pid mod m = 0)
  | D_churn (a, b) -> Delay.churn ~calm:a ~storm:b

let compile_crash ~start = function
  | C_none -> fun (_ : Adversary.oracle) -> []
  | C_at (tm, cnt, stride) ->
    fun (o : Adversary.oracle) ->
      if o.time () = start + tm then
        List.filter
          (fun pid -> pid < o.p)
          (List.init cnt (fun i -> 1 + (i * stride)))
      else []
  | C_staggered every ->
    (* like Crash.staggered, but sparing the designated survivor pid 0 *)
    fun (o : Adversary.oracle) ->
      let now = o.time () in
      if now > start && (now - start) mod every = 0 then begin
        let rec lowest pid =
          if pid >= o.p then []
          else if o.alive pid then [ pid ]
          else lowest (pid + 1)
        in
        lowest 1
      end
      else []
  | C_poisson rate -> Crash.poisson ~survivor:0 ~rate
  | C_flaky (up, down) -> fst (Crash.flaky ~survivor:0 ~up ~down ())

let compile_restart = function
  | C_flaky (up, down) -> Some (snd (Crash.flaky ~survivor:0 ~up ~down ()))
  | _ -> None

(* [K] indexes the ordering-rule family so one integer gene spans the
   whole spectrum: 0 lowest-first, 1 highest-first, 2 defer-the-informed,
   and any larger K a rotating grant with offset K. *)
let compile_chan_order k =
  match k mod 4 with
  | 0 -> Chan.ordered_low
  | 1 -> Chan.ordered_high
  | 2 -> Chan.most_informed_last
  | _ -> Chan.rotor k

let compile_chan = function
  | Ch_none -> (None, None)
  | Ch_ordered k -> (Some (compile_chan_order k), None)
  | Ch_delayed cap -> (None, Some (Chan.batched ~cap))
  | Ch_both (cap, k) ->
    (Some (compile_chan_order k), Some (Chan.batched ~cap))

let compile_faults = function
  | [] -> None
  | faults ->
    Some
      (Fault.all
         (map_seq
            (function
              | F_drop pr -> Fault.drop ~prob:pr
              | F_dup (pr, n) -> Fault.duplicate ~copies:n ~prob:pr
              | F_reorder pr -> Fault.reorder ~prob:pr)
            faults))

let into t =
  let t = make t in
  let name = "strategy:" ^ to_spec t in
  let arr = Array.of_list t in
  let n = Array.length arr in
  let starts = Array.make n 0 in
  for i = 1 to n - 1 do
    starts.(i) <-
      starts.(i - 1)
      + (match arr.(i - 1).lasts with Some k -> k | None -> 0)
  done;
  let phase_at now =
    let i = ref (n - 1) in
    while !i > 0 && starts.(!i) > now do
      decr i
    done;
    !i
  in
  let scheds = Array.map (fun ph -> compile_sched ph.sched) arr in
  let delays = Array.map (fun ph -> compile_delay ph.delay) arr in
  let crashes =
    Array.mapi (fun i ph -> compile_crash ~start:starts.(i) ph.crash) arr
  in
  let restarts = Array.map (fun ph -> compile_restart ph.crash) arr in
  let faults = Array.map (fun ph -> compile_faults ph.faults) arr in
  (* A one-phase strategy binds its compiled closures directly: no
     clock read and no phase lookup per call, which matters for the
     delay and fault verdicts asked p - 1 times per multicast. Several
     phases dispatch on the phase running at [o.time ()]. The channel
     rules, asked once per slot, always dispatch. *)
  let at (o : Adversary.oracle) = phase_at (o.time ()) in
  let schedule =
    match scheds with [| s |] -> s | _ -> fun o -> scheds.(at o) o
  in
  let delay =
    match delays with
    | [| d |] -> d
    | _ ->
      let delays = Array.map Adversary.closure delays in
      Adversary.Per_copy (fun o ~src ~dst -> delays.(at o) o ~src ~dst)
  in
  let crash =
    match crashes with [| c |] -> c | _ -> fun o -> crashes.(at o) o
  in
  let faults =
    if has_faults t then
      Some
        (match faults with
         | [| Some f |] -> f
         | _ ->
           fun o ~src ~dst ->
             match faults.(at o) with
             | None -> Adversary.Deliver
             | Some f -> f o ~src ~dst)
    else None
  in
  let restart =
    if has_restart t then
      Some
        (match restarts with
         | [| Some r |] -> r
         | _ ->
           fun o ->
             match restarts.(at o) with
             | None -> []
             | Some r -> r o)
    else None
  in
  let channel =
    if has_chan t then begin
      let chans = Array.map (fun ph -> compile_chan ph.chan) arr in
      (* a phase without an ordering rule declines arbitration (collide);
         one without a hold rule releases in the submission slot *)
      Some
        {
          Adversary.chan_name = "strategy";
          order =
            Some
              (fun (o : Adversary.oracle) contenders ->
                match fst chans.(at o) with
                | Some f -> f o contenders
                | None -> None);
          hold =
            Some
              (fun (o : Adversary.oracle) ~src ->
                match snd chans.(at o) with
                | Some h -> h o ~src
                | None -> 0);
        }
    end
    else None
  in
  Adversary.make ~name ~schedule ~delay ~crash ?faults ?restart ?channel ()

(* ---- search support ---- *)

(* Enforce a space's liveness rules (see [space]), deterministically
   replacing offending rules; applied by [random], [mutate] and
   [crossover] to their results. *)
let repair ~space ~p t =
  let t = make t in
  let delaggard t =
    (* restarts reset local progress, so completion rests entirely on
       the never-crashed pid 0 — which solo/laggard scheduling is free
       to starve forever (the fuzz suite's livelock-exclusion rule) *)
    if has_restart t then
      map_seq
        (fun ph ->
          match ph.sched with
          | S_laggard | S_solo _ -> { ph with sched = S_all }
          | _ -> ph)
        t
    else t
  in
  match space with
  | Full -> t
  | Live -> delaggard t
  | In_model ->
    (* the paper's arena: delay + crash/restart adversity only — message
       faults (loss, duplication, reordering) are beyond the model *)
    delaggard (map_seq (fun ph -> { ph with faults = [] }) t)
  | Quorum_safe ->
    (* keep a majority alive and every pid stepping infinitely often;
       faults off (lossy networks can stall quorum emulation forever) *)
    let minority = Int.max 0 ((p - 1) / 2) in
    mapi_seq
      (fun i ph ->
        let sched =
          match ph.sched with
          | S_laggard | S_solo _ -> S_all
          | S_random pr when pr < 0.2 -> S_random 0.2
          | s -> s
        in
        let crash =
          (* crashes in the first phase only, so phases cannot
             cumulatively kill a majority *)
          match ph.crash with
          | C_at (tm, n, s) when i = 0 -> C_at (tm, Int.min n minority, s)
          | _ -> C_none
        in
        (* contention rules stay off: on a silent channel they can
           starve quorum-dependent algorithms forever *)
        { ph with sched; crash; faults = []; chan = Ch_none })
      t

let pick rng l = List.nth l (Rng.int rng (List.length l))

let random_prob rng = norm_prob (Rng.float rng 1.0)

let random_sched rng ~space ~p =
  match space with
  | Quorum_safe ->
    pick rng
      [
        S_all;
        S_rr (1 + Rng.int rng (Int.max 1 p));
        S_random (norm_prob (0.2 +. Rng.float rng 0.8));
        S_harmonic;
      ]
  | Full | Live | In_model ->
    pick rng
      [
        S_all;
        S_solo (Rng.int rng (Int.max 1 p));
        S_rr (1 + Rng.int rng (Int.max 1 p));
        S_random (random_prob rng);
        S_harmonic;
        S_laggard;
      ]

let random_delay rng ~d ~tsk =
  pick rng
    [
      D_const (1 + Rng.int rng (Int.max 1 (2 * d)));
      D_max;
      D_uniform;
      D_bimodal (random_prob rng);
      D_stage (1 + Rng.int rng (Int.max 1 d));
      D_partition (2 + Rng.int rng 7);
      D_target (2 + Rng.int rng 7);
      D_churn
        (1 + Rng.int rng (Int.max 1 (tsk / 2)), 1 + Rng.int rng (Int.max 1 d));
    ]

let random_crash rng ~space ~p ~tsk =
  match space with
  | Quorum_safe ->
    pick rng
      [
        C_none;
        C_at
          ( Rng.int rng (Int.max 1 tsk),
            Rng.int rng (Int.max 1 ((p + 1) / 2)),
            1 );
      ]
  | Full | Live | In_model ->
    pick rng
      [
        C_none;
        C_at
          ( Rng.int rng (Int.max 1 tsk),
            Rng.int rng (Int.max 1 p),
            1 + Rng.int rng 3 );
        C_staggered (1 + Rng.int rng (Int.max 1 (tsk / 4 + 1)));
        C_poisson (quant3 (0.005 +. Rng.float rng 0.05));
        C_flaky
          ( 1 + Rng.int rng (Int.max 1 (tsk / 2)),
            1 + Rng.int rng (Int.max 1 (tsk / 4)) );
      ]

let random_fault rng =
  pick rng
    [
      F_drop (random_prob rng);
      F_dup (norm_prob (Rng.float rng 0.5), 1 + Rng.int rng 3);
      F_reorder (random_prob rng);
    ]

let random_faults rng ~space =
  match space with
  | Quorum_safe | In_model -> []
  | Full | Live -> (
    match Rng.int rng 4 with
    | 0 | 1 -> []
    | 2 -> [ random_fault rng ]
    | _ ->
      let a = random_fault rng in
      let b = random_fault rng in
      [ a; b ])

let random_chan rng ~space ~d =
  match space with
  | Quorum_safe -> Ch_none
  | Full | Live | In_model -> (
    match Rng.int rng 4 with
    | 0 -> Ch_none
    | 1 -> Ch_ordered (Rng.int rng 8)
    | 2 -> Ch_delayed (1 + Rng.int rng (Int.max 1 d))
    | _ -> Ch_both (1 + Rng.int rng (Int.max 1 d), Rng.int rng 8))

let random_phase rng ~space ~chan ~p ~tsk ~d =
  let sched = random_sched rng ~space ~p in
  let delay = random_delay rng ~d ~tsk in
  let crash = random_crash rng ~space ~p ~tsk in
  let faults = random_faults rng ~space in
  (* only drawn when the caller targets a shared-channel run: keeping
     the default path free of extra draws preserves the RNG sequence of
     every existing point-to-point search *)
  let chan = if chan then random_chan rng ~space ~d else Ch_none in
  let lasts = Some (1 + Rng.int rng (Int.max 1 tsk)) in
  { sched; delay; crash; faults; chan; lasts }

let random ?(chan = false) ~rng ~space ~p ~t:tsk ~d () =
  let n = if Rng.int rng 10 < 3 then 2 else 1 in
  repair ~space ~p
    (init_seq n (fun _ -> random_phase rng ~space ~chan ~p ~tsk ~d))

let nudge_int rng v =
  match Rng.int rng 4 with
  | 0 -> v + 1
  | 1 -> Int.max 1 (v - 1)
  | 2 -> v * 2
  | _ -> Int.max 1 (v / 2)

let nudge_prob rng v = norm_prob (v +. Rng.float rng 0.5 -. 0.25)

let nudge_sched rng = function
  | S_solo k -> S_solo (Int.max 0 (nudge_int rng k))
  | S_rr w -> S_rr (nudge_int rng w)
  | S_random pr -> S_random (nudge_prob rng pr)
  | s -> s

let nudge_delay rng = function
  | D_const k -> D_const (nudge_int rng k)
  | D_stage k -> D_stage (nudge_int rng k)
  | D_partition k -> D_partition (nudge_int rng k)
  | D_target m -> D_target (nudge_int rng m)
  | D_bimodal pr -> D_bimodal (nudge_prob rng pr)
  | D_churn (a, b) ->
    if Rng.bool rng then
      let a = nudge_int rng a in
      D_churn (a, b)
    else
      let b = nudge_int rng b in
      D_churn (a, b)
  | d -> d

let nudge_crash rng = function
  | C_at (tm, n, s) -> (
    match Rng.int rng 3 with
    | 0 -> C_at (Int.max 0 (nudge_int rng tm), n, s)
    | 1 -> C_at (tm, Int.max 0 (nudge_int rng n), s)
    | _ -> C_at (tm, n, nudge_int rng s))
  | C_staggered e -> C_staggered (nudge_int rng e)
  | C_poisson r -> C_poisson (norm_prob (r +. Rng.float rng 0.04 -. 0.02))
  | C_flaky (u, dn) ->
    if Rng.bool rng then
      let u = nudge_int rng u in
      C_flaky (u, dn)
    else
      let dn = nudge_int rng dn in
      C_flaky (u, dn)
  | C_none -> C_none

let nudge_fault rng = function
  | F_drop pr -> F_drop (nudge_prob rng pr)
  | F_reorder pr -> F_reorder (nudge_prob rng pr)
  | F_dup (pr, n) ->
    if Rng.bool rng then F_dup (nudge_prob rng pr, n)
    else F_dup (pr, clamp 1 8 (nudge_int rng n))

let nudge_faults rng ~space = function
  | [] -> random_faults rng ~space
  | faults ->
    let idx = Rng.int rng (List.length faults) in
    mapi_seq (fun i f -> if i = idx then nudge_fault rng f else f) faults

let mutate ?(chan = false) ~rng ~space ~p ~t:tsk ~d str =
  let str = make str in
  let n = List.length str in
  let idx = Rng.int rng n in
  let apply f = mapi_seq (fun i ph -> if i = idx then f ph else ph) str in
  let str' =
    (* the chan arm only exists when the caller targets a channel run,
       so point-to-point searches keep their exact draw sequence *)
    match Rng.int rng (if chan then 11 else 10) with
    | 10 -> apply (fun ph -> { ph with chan = random_chan rng ~space ~d })
    | 0 | 1 -> apply (fun ph -> { ph with sched = nudge_sched rng ph.sched })
    | 2 | 3 -> apply (fun ph -> { ph with delay = nudge_delay rng ph.delay })
    | 4 -> apply (fun ph -> { ph with crash = nudge_crash rng ph.crash })
    | 5 ->
      apply (fun ph -> { ph with faults = nudge_faults rng ~space ph.faults })
    | 6 -> apply (fun ph -> { ph with sched = random_sched rng ~space ~p })
    | 7 -> apply (fun ph -> { ph with delay = random_delay rng ~d ~tsk })
    | 8 ->
      apply (fun ph -> { ph with crash = random_crash rng ~space ~p ~tsk })
    | _ -> (
      (* phase surgery *)
      match Rng.int rng 3 with
      | 0 when n > 1 -> List.filteri (fun i _ -> i <> idx) str
      | 1 when n < max_phases ->
        List.concat
          (mapi_seq
             (fun i ph ->
               if i = idx then
                 [
                   { ph with lasts = Some (1 + Rng.int rng (Int.max 1 tsk)) };
                   ph;
                 ]
               else [ ph ])
             str)
      | _ ->
        apply (fun ph ->
            { ph with lasts = Option.map (nudge_int rng) ph.lasts }))
  in
  repair ~space ~p str'

let crossover ~rng ~space ~p a b =
  let aa = Array.of_list (make a) in
  let ba = Array.of_list (make b) in
  let n = Array.length (if Rng.bool rng then aa else ba) in
  let phs =
    init_seq n (fun i ->
        let av = if i < Array.length aa then Some aa.(i) else None in
        let bv = if i < Array.length ba then Some ba.(i) else None in
        match (av, bv) with
        | Some x, Some y ->
          let sched = (if Rng.bool rng then x else y).sched in
          let delay = (if Rng.bool rng then x else y).delay in
          let crash = (if Rng.bool rng then x else y).crash in
          let faults = (if Rng.bool rng then x else y).faults in
          let chan =
            (* no extra draw unless a parent carries a chan rule:
               point-to-point crossovers keep their RNG sequence *)
            if x.chan = Ch_none && y.chan = Ch_none then Ch_none
            else (if Rng.bool rng then x else y).chan
          in
          let lasts = (if Rng.bool rng then x else y).lasts in
          { sched; delay; crash; faults; chan; lasts }
        | Some x, None | None, Some x -> x
        | None, None -> assert false)
  in
  repair ~space ~p phs
