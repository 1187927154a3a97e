(* The traced run: one cell driven through Engine.Make directly, with
   every layer measured from outside the engine.

   - engine: the engine's own Span phases (deliver, algo_step,
     bcast_maint, adversary, oracle), plus the timed [create] and the
     run's wall clock; what no phase covers is the engine's self time
     (tick loop, channel slot resolution).
   - algo: the packed algorithm behind [Timed], which keeps the same
     [msg] type and the same [merge_homomorphic] (Some/None), so the
     engine takes the same delivery path as untraced.
   - adversary: every closure field of [Adversary.t] wrapped; [latency]
     is left alone so the stream gate decides as before. Algorithm steps
     and copies made inside an adversary callback are lookahead, and are
     counted.
   - transport: self time by subtraction, counts from the probe.

   Times that are zero on some workload (the oracle phase when checking
   is off, a callback the adversary never makes, the fold off the digest
   path) are not reported on their own, since a time that reads 0 on
   every run says nothing; the transport subtractions below still use
   them, and the oracle phase stays under the internal key [_oracle_s]
   for the phase shares the suite prints.

   Bench-side sections use their own [Span.t], so they read the same
   clock as the engine's phases. *)

open Doall_sim
open Doall_core

type recorder = {
  sp : Span.t;
  init : Span.span;
  step : Span.span;
  receive : Span.span;
  fold : Span.span;
  schedule : Span.span;
  crash : Span.span;
  restart : Span.span;
  delay : Span.span;
  faults : Span.span;
  order : Span.span;
  hold : Span.span;
  mutable step_words : float;
  mutable fold_msgs : int;
  mutable broadcasts : int;
  mutable unicasts : int;
  mutable look_steps : int;
  mutable look_copies : int;
  mutable in_adv : int;  (** depth of adversary callbacks on the stack *)
}

let recorder () =
  let sp = Span.create () in
  let s = Span.span sp in
  {
    sp;
    init = s "algo.init";
    step = s "algo.step";
    receive = s "algo.receive";
    fold = s "algo.fold";
    schedule = s "adversary.schedule";
    crash = s "adversary.crash";
    restart = s "adversary.restart";
    delay = s "adversary.delay";
    faults = s "adversary.faults";
    order = s "adversary.order";
    hold = s "adversary.hold";
    step_words = 0.0;
    fold_msgs = 0;
    broadcasts = 0;
    unicasts = 0;
    look_steps = 0;
    look_copies = 0;
    in_adv = 0;
  }

module type RECORDER = sig
  val r : recorder
end

(* The state carries its pid so that unicasts to self, which the engine
   drops, can be left out of the message count. *)
module Timed (R : RECORDER) (A : Algorithm.S) : Algorithm.S with type msg = A.msg =
struct
  let r = R.r
  let name = A.name

  type msg = A.msg
  type state = { pid : int; st : A.state }

  let init cfg ~pid =
    Span.enter r.init;
    let st = A.init cfg ~pid in
    Span.leave r.init;
    { pid; st }

  (* the engine copies states only for the adversary's lookahead *)
  let copy s =
    r.look_copies <- r.look_copies + 1;
    { s with st = A.copy s.st }

  let receive s ~src m =
    Span.enter r.receive;
    A.receive s.st ~src m;
    Span.leave r.receive

  let merge_homomorphic =
    Option.map
      (fun fold ms ->
        r.fold_msgs <- r.fold_msgs + Array.length ms;
        Span.enter r.fold;
        let m = fold ms in
        Span.leave r.fold;
        m)
      A.merge_homomorphic

  let step s =
    if r.in_adv > 0 then begin
      r.look_steps <- r.look_steps + 1;
      A.step s.st
    end
    else begin
      let w0 = Gc.minor_words () in
      Span.enter r.step;
      let res = A.step s.st in
      Span.leave r.step;
      r.step_words <- r.step_words +. (Gc.minor_words () -. w0);
      (match res.Algorithm.broadcast with
       | Some _ -> r.broadcasts <- r.broadcasts + 1
       | None -> ());
      List.iter
        (fun (dst, _) -> if dst <> s.pid then r.unicasts <- r.unicasts + 1)
        res.Algorithm.unicasts;
      res
    end

  let is_done s = A.is_done s.st
  let done_tasks s = A.done_tasks s.st
end

let wrap_adversary r (a : Adversary.t) : Adversary.t =
  let inside sp =
    r.in_adv <- r.in_adv + 1;
    Span.enter sp
  in
  let outside sp =
    Span.leave sp;
    r.in_adv <- r.in_adv - 1
  in
  let wrap1 sp f o =
    inside sp;
    let v = f o in
    outside sp;
    v
  in
  let wrap_pair sp f o ~src ~dst =
    inside sp;
    let v = f o ~src ~dst in
    outside sp;
    v
  in
  {
    a with
    schedule = wrap1 r.schedule a.schedule;
    crash = wrap1 r.crash a.crash;
    restart = Option.map (wrap1 r.restart) a.restart;
    delay = wrap_pair r.delay a.delay;
    faults = Option.map (wrap_pair r.faults) a.faults;
    channel =
      Option.map
        (fun (c : Adversary.channel_policy) ->
          {
            c with
            order =
              Option.map
                (fun f o contenders ->
                  inside r.order;
                  let v = f o contenders in
                  outside r.order;
                  v)
                c.order;
            hold =
              Option.map
                (fun f o ~src ->
                  inside r.hold;
                  let v = f o ~src in
                  outside r.hold;
                  v)
                c.hold;
          })
        a.channel;
  }

let span_of snap name =
  match List.assoc_opt name snap with Some tc -> tc | None -> (0.0, 0)

let secs snap name = fst (span_of snap name)
let calls snap name = float_of_int (snd (span_of snap name))

(* Runs one cell traced. Returns its metrics and the layer values to be
   summed over the cells of a repetition. Ratios are formed later from
   the sums; keys starting with '_' are not metrics: two feed
   [algo.useful_ratio], [_oracle_s] the phase shares. *)
let run_cell (c : Workloads.cell) =
  let s = c.Workloads.spec in
  let r = recorder () in
  let (module A : Algorithm.S) = (Runner.find_algo s.Runner.spec_algo).make () in
  let module T = Timed (struct let r = r end) (A) in
  let module E = Engine.Make (T) in
  let adversary =
    wrap_adversary r
      ((Runner.find_adv s.Runner.spec_adv).instantiate ~p:s.p ~t:s.t ~d:s.d)
  in
  let cfg = Config.make ~seed:s.seed ~transport:s.transport ~p:s.p ~t:s.t () in
  let probe = Probe.create () and spans = Span.create () in
  let t0 = Unix.gettimeofday () in
  let eng = E.create ~probe ~spans ~check:c.check cfg ~d:s.d ~adversary in
  let t1 = Unix.gettimeofday () in
  let m = E.run eng in
  let t2 = Unix.gettimeofday () in
  let ph = Span.snapshot spans and bs = Span.snapshot r.sp in
  let counters = (Probe.snapshot probe).Probe.counters in
  let counter name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name counters))
  in
  let oracle_ticks =
    match E.checker eng with Some o -> Oracle.ticks_checked o | None -> 0
  in
  let layer =
    [
      ("engine.deliver_s", secs ph "deliver");
      ("engine.algo_step_s", secs ph "algo_step");
      ("engine.bcast_maint_s", secs ph "bcast_maint");
      ("engine.adversary_s", secs ph "adversary");
      ("engine.create_s", t1 -. t0);
      ("engine.self_s", t2 -. t1 -. Span.total ph);
      ("_oracle_s", secs ph "oracle");
      ("engine.ticks", calls ph "adversary");
      ("engine.steps", calls ph "algo_step");
      ("algo.init_s", secs bs "algo.init");
      ("algo.step.calls", calls bs "algo.step");
      ("algo.step_s", secs bs "algo.step");
      ("algo.step.minor_words", r.step_words);
      ("algo.receive.calls", calls bs "algo.receive");
      ("algo.receive_s", secs bs "algo.receive");
      ("algo.fold.calls", calls bs "algo.fold");
      ("algo.fold.msgs", float_of_int r.fold_msgs);
      ("algo.broadcasts", float_of_int r.broadcasts);
      ("algo.unicasts", float_of_int r.unicasts);
      ("_tasks", float_of_int s.t);
      ("_executions", float_of_int m.Metrics.executions);
      ("adversary.schedule_s", secs bs "adversary.schedule");
      ("adversary.crash_s", secs bs "adversary.crash");
      ("adversary.delay.calls", calls bs "adversary.delay");
      ("adversary.lookahead_steps", float_of_int r.look_steps);
      ("adversary.lookahead_copies", float_of_int r.look_copies);
      ( "transport.drain_s",
        secs ph "deliver" -. secs bs "algo.receive" -. secs bs "algo.fold" );
      ( "transport.send_s",
        secs ph "bcast_maint" -. secs bs "adversary.delay"
        -. secs bs "adversary.faults" -. secs bs "adversary.hold" );
      ("transport.deliveries", counter "net.deliveries");
      ("transport.drops", counter "net.drops");
      ("transport.dups", counter "net.dups");
      ("transport.collisions", counter "net.collisions");
      ("transport.busy_slots", counter "net.channel_busy");
      ("oracle.ticks", float_of_int oracle_ticks);
    ]
  in
  (m, r, layer)

(* M seen from outside the engine: on point-to-point a multicast costs
   p-1 and a unicast 1; on the shared channel both cost 1
   (docs/MODEL.md). *)
let expected_messages (s : Runner.run_spec) r =
  match s.transport with
  | Config.Ptp -> ((s.p - 1) * r.broadcasts) + r.unicasts
  | Config.Channel _ -> r.broadcasts + r.unicasts

(* Sums layer values over the cells of one repetition and forms the
   ratios. *)
let repetition layers =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k
           (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))))
    layers;
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let busy = get "transport.busy_slots" in
  Hashtbl.replace tbl "algo.useful_ratio" (ratio (get "_tasks") (get "_executions"));
  Hashtbl.replace tbl "transport.msgs_per_receive"
    (ratio (get "transport.deliveries") (get "algo.receive.calls"));
  Hashtbl.replace tbl "transport.slot_success_ratio"
    (ratio (busy -. get "transport.collisions") busy);
  Hashtbl.remove tbl "_tasks";
  Hashtbl.remove tbl "_executions";
  List.of_seq (Hashtbl.to_seq tbl)
