(* The multiple-access shared channel: slot semantics (deliver iff
   exactly one contender), collision modes, adversary arbitration,
   message counting on a broadcast medium, engine integration, and
   bit-determinism of channel-backed grids.

   The companion guarantee — that point-to-point runs are unchanged by
   the channel's arrival — is pinned by the existing golden suites
   (test_golden_grid, test_exp's e1/e2/e19); here we only pin the
   channel's own semantics. *)

open Doall_sim
open Doall_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- raw channel semantics ----------------------------------------- *)

let test_single_contender_delivers () =
  let ch = Channel.create ~p:3 ~collision:Config.Silent () in
  Channel.transmit ch ~src:0 ~release:0 ~bcast:"m" ~unis:[] ();
  check_int "sent: broadcast costs 1 on a shared medium" 1 (Channel.sent ch);
  let slot = Channel.resolve ch ~now:0 () in
  check "the frame goes out" true (slot = Channel.Delivered);
  check_int "not due yet" 0
    (Channel.receive_iter ch ~dst:1 ~now:0 (fun _ _ -> ()));
  let got = ref [] in
  let n =
    Channel.receive_iter ch ~dst:1 ~now:1 (fun src msg ->
        got := (src, msg) :: !got)
  in
  check_int "due next slot" 1 n;
  Alcotest.(check (list (pair int string))) "payload" [ (0, "m") ] !got;
  check_int "other receiver too" 1
    (Channel.receive_iter ch ~dst:2 ~now:1 (fun _ _ -> ()))

let test_silent_collision_loses_both () =
  let ch = Channel.create ~p:3 ~collision:Config.Silent () in
  Channel.transmit ch ~src:0 ~release:0 ~bcast:"a" ~unis:[] ();
  Channel.transmit ch ~src:1 ~release:0 ~bcast:"b" ~unis:[] ();
  let slot = Channel.resolve ch ~now:0 () in
  check "collided" true (slot = Channel.Collided);
  check_int "both frames lost" 2 (Channel.lost ch);
  check_int "attempts still count as messages" 2 (Channel.sent ch);
  check_int "nothing owed" 0 (Channel.pending ch);
  check_int "nothing ever arrives" 0
    (Channel.receive_iter ch ~dst:2 ~now:99 (fun _ _ -> ()))

let test_detectable_backoff_serializes () =
  (* Colliders back off to the next slot u > now with u mod p = src:
     distinct sources land on distinct slots and never re-collide. *)
  let ch = Channel.create ~p:3 ~collision:Config.Detectable () in
  Channel.transmit ch ~src:0 ~release:0 ~bcast:"a" ~unis:[] ();
  Channel.transmit ch ~src:1 ~release:0 ~bcast:"b" ~unis:[] ();
  let s0 = Channel.resolve ch ~now:0 () in
  check "collision detected" true (s0 = Channel.Collided);
  check_int "nothing lost" 0 (Channel.lost ch);
  (* src 1 retries at slot 1 (1 mod 3 = 1), src 0 at slot 3 *)
  let s1 = Channel.resolve ch ~now:1 () in
  check "src 1 alone at slot 1" true (s1 = Channel.Delivered);
  let s2 = Channel.resolve ch ~now:2 () in
  check "slot 2 idle" true (s2 = Channel.Idle);
  let s3 = Channel.resolve ch ~now:3 () in
  check "src 0 alone at slot 3" true (s3 = Channel.Delivered);
  check_int "one collision total" 1 (Channel.collisions ch);
  check_int "two successes" 2 (Channel.successes ch);
  let got = ref [] in
  ignore
    (Channel.receive_iter ch ~dst:2 ~now:4 (fun src msg ->
         got := (src, msg) :: !got));
  Alcotest.(check (list (pair int string)))
    "backoff order: src 1 first" [ (1, "b"); (0, "a") ] (List.rev !got)

let test_arbitration_grants_head_defers_rest () =
  let ch = Channel.create ~p:4 ~collision:Config.Silent () in
  List.iter
    (fun src ->
      Channel.transmit ch ~src ~release:0 ~bcast:(string_of_int src)
        ~unis:[] ())
    [ 0; 1; 2 ];
  let reverse arr =
    let n = Array.length arr in
    Some (Array.init n (fun i -> arr.(n - 1 - i)))
  in
  let s0 = Channel.resolve ch ~now:0 ~arbitrate:reverse () in
  check "arbitrated slot delivers one frame" true (s0 = Channel.Delivered);
  let s1 = Channel.resolve ch ~now:1 ~arbitrate:reverse () in
  let s2 = Channel.resolve ch ~now:2 ~arbitrate:reverse () in
  check "deferred frames drain one per slot" true
    (s1 = Channel.Delivered && s2 = Channel.Delivered);
  let got = ref [] in
  ignore
    (Channel.receive_iter ch ~dst:3 ~now:3 (fun src _ -> got := src :: !got));
  Alcotest.(check (list int)) "highest pid first under reverse order"
    [ 2; 1; 0 ] (List.rev !got)

let test_arbitration_decline_collides () =
  let ch = Channel.create ~p:3 ~collision:Config.Silent () in
  Channel.transmit ch ~src:0 ~release:0 ~bcast:"a" ~unis:[] ();
  Channel.transmit ch ~src:1 ~release:0 ~bcast:"b" ~unis:[] ();
  let slot = Channel.resolve ch ~now:0 ~arbitrate:(fun _ -> None) () in
  check "declined arbitration collides" true (slot = Channel.Collided);
  check_int "silent: both lost" 2 (Channel.lost ch)

let test_arbitration_must_permute () =
  let ch = Channel.create ~p:3 ~collision:Config.Silent () in
  Channel.transmit ch ~src:0 ~release:0 ~bcast:"a" ~unis:[] ();
  Channel.transmit ch ~src:1 ~release:0 ~bcast:"b" ~unis:[] ();
  check "non-permutation rejected" true
    (try
       ignore
         (Channel.resolve ch ~now:0 ~arbitrate:(fun _ -> Some [| 0; 0 |]) ());
       false
     with Invalid_argument _ -> true)

(* A frame resolved at a slot before a receiver's clock would be due
   behind its delivery cursor: resolve rejects the slot and changes
   nothing. *)
let test_slot_behind_receive_rejected () =
  let ch = Channel.create ~p:3 ~collision:Config.Silent () in
  Channel.transmit ch ~src:0 ~release:0 ~bcast:"b" ~unis:[ (2, "u") ] ();
  check_int "nothing due yet" 0 (Channel.receive_iter ch ~dst:2 ~now:5 (fun _ _ -> ()));
  let before () =
    ( (Channel.sent ch, Channel.lost ch, Channel.collisions ch),
      (Channel.busy_slots ch, Channel.successes ch, Channel.pending ch) )
  in
  let counters = before () in
  check "slot 0 after a receive at 5 rejected" true
    (try
       ignore (Channel.resolve ch ~now:0 ());
       false
     with Invalid_argument _ -> true);
  check "counters unchanged" true (before () = counters);
  check_int "nothing delivered" 0 (Channel.receive_iter ch ~dst:2 ~now:6 (fun _ _ -> ()));
  let slot = Channel.resolve ch ~now:6 () in
  check "the frame goes out at the receiver's clock" true
    (slot = Channel.Delivered);
  check_int "both copies reach pid 2 a slot later" 2
    (Channel.receive_iter ch ~dst:2 ~now:7 (fun _ _ -> ()))

let test_frame_validation () =
  let ch = Channel.create ~p:3 ~collision:Config.Silent () in
  check "empty frame rejected" true
    (try
       Channel.transmit ch ~src:0 ~release:0 ~unis:[] ();
       false
     with Invalid_argument _ -> true);
  check "self-unicast rejected" true
    (try
       Channel.transmit ch ~src:0 ~release:0 ~unis:[ (0, "x") ] ();
       false
     with Invalid_argument _ -> true)

let test_message_counting_mixed_frame () =
  (* a frame with a broadcast and two unicasts is 3 logical messages *)
  let ch = Channel.create ~p:4 ~collision:Config.Silent () in
  Channel.transmit ch ~src:0 ~release:0 ~bcast:"b"
    ~unis:[ (1, "u1"); (2, "u2") ] ();
  check_int "3 logical messages" 3 (Channel.sent ch);
  check "delivered in one slot" true
    (Channel.resolve ch ~now:0 () = Channel.Delivered);
  (* dst 1 gets the broadcast and its unicast; dst 3 only the bcast *)
  check_int "dst 1" 2 (Channel.receive_iter ch ~dst:1 ~now:1 (fun _ _ -> ()));
  check_int "dst 3" 1 (Channel.receive_iter ch ~dst:3 ~now:1 (fun _ _ -> ()))

(* Queuing a frame, resolving its slot and receiving its copies
   allocate nothing once the rings have grown, however many
   destinations the frame reaches: rounds in
   which one station transmits a broadcast and a unicast, the slot
   resolves, and every destination receives the previous slot's frame. *)
let test_frames_allocate_nothing () =
  let p = 16 and rounds = 200 in
  let ch = Channel.create ~p ~collision:Config.Silent () in
  let bcast = Some "b" and unis = [ (0, "u") ] in
  let receiver _ _ = () in
  let queued = ref 0.0 and resolved = ref 0.0 and received = ref 0.0 in
  let measure acc f =
    let w0 = Gc.minor_words () in
    f ();
    acc := !acc +. (Gc.minor_words () -. w0)
  in
  for round = 0 to rounds - 1 do
    let src = 1 + (round mod (p - 1)) in
    let warm = round < 2 * p in
    let sink = ref 0.0 in
    measure (if warm then sink else queued) (fun () ->
        Channel.transmit ch ~src ~release:round ?bcast ~unis ());
    measure (if warm then sink else resolved) (fun () ->
        ignore (Channel.resolve ch ~now:round ()));
    measure (if warm then sink else received) (fun () ->
        for dst = 0 to p - 1 do
          ignore (Channel.receive_iter ch ~dst ~now:(round + 1) receiver)
        done)
  done;
  check_int "every frame delivered" 0 (Channel.pending ch);
  let measured = rounds - (2 * p) in
  check (Printf.sprintf "%.0f words queuing %d frames" !queued measured) true
    (!queued = 0.0);
  check
    (Printf.sprintf "%.0f words receiving %d frames" !received measured)
    true (!received = 0.0);
  check
    (Printf.sprintf "%.0f words resolving %d slots" !resolved measured)
    true
    (!resolved = 0.0)

(* QCheck: the defining property — an unarbitrated slot delivers iff
   exactly one station contends. *)
let delivers_iff_single_contender =
  QCheck2.Test.make ~name:"channel: delivers iff exactly one contender"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 6) bool)
    (fun (contenders, detectable) ->
      let collision =
        if detectable then Config.Detectable else Config.Silent
      in
      let p = 8 in
      let ch = Channel.create ~p ~collision () in
      for src = 0 to contenders - 1 do
        Channel.transmit ch ~src ~release:0 ~bcast:src ~unis:[] ()
      done;
      let slot = Channel.resolve ch ~now:0 () in
      (* pid p-1 never transmits, so it owes us the broadcast iff the
         slot went through *)
      let received = Channel.receive_iter ch ~dst:(p - 1) ~now:1 (fun _ _ -> ()) in
      slot
      = (match contenders with
         | 0 -> Channel.Idle
         | 1 -> Channel.Delivered
         | _ -> Channel.Collided)
      && received = (if contenders = 1 then 1 else 0)
      && Channel.sent ch = contenders
      &&
      (* silent collisions lose the frames; detectable keeps them *)
      if contenders >= 2 then
        if detectable then Channel.lost ch = 0
        else Channel.lost ch = contenders
      else Channel.lost ch = 0)

(* Differential test against [Ref_chan]: random sequences of
   transmits (broadcasts, unicasts, release slots, bad pids, self-sends,
   empty frames), silences, slot resolutions under every arbitration
   shape (none, identity, reverse, rotor, decline, three kinds of
   non-permutation, and an out-of-order slot), rejected arbitrations
   followed by the same slot resolved again, and receives at random
   destinations. Receives never run ahead of the next slot to resolve,
   as in the engine, where a tick's steps come before its slot, except
   in [Behind]: a receive ahead of the next slot, after which resolving
   that slot must raise and leave every counter and pending delivery as
   it was. Every
   outcome — unit, slot record, (src, msg) delivery sequence, or the
   text of a raised [Invalid_argument] — and every counter must match
   after every operation. Payloads are boxes, sometimes reused, so
   physically shared payloads are exercised too. *)
type arb =
  | No_arb
  | Identity
  | Reverse
  | Rotor
  | Decline
  | Duplicate
  | Short
  | Stranger

type chan_op =
  | Transmit of {
      src : int;
      release : int; (* offset from the next slot *)
      bcast : bool;
      unis : (int * bool) list; (* dst, reuse the previous payload *)
    }
  | Silence of int
  | Resolve of { skip : int; arb : arb } (* skip < 0: the last slot again *)
  | Reject of { skip : int; bad : arb; arb : arb }
      (* resolve with the non-permutation [bad]; if both reject it,
         nothing may have changed, and the slot resolves with [arb] *)
  | Receive of { dst : int; back : int }
  | Behind of { dst : int; ahead : int; arb : arb }
      (* receive at [ahead] slots past the next one, then resolve the
         next slot: both must reject it *)

type outcome =
  | Done
  | Raised of string
  | Slot of Channel.slot
  | Got of int * (int * int) list

let arbitration arb ~p ~now =
  let rotate c =
    let n = Array.length c in
    Array.init n (fun i -> c.((i + now) mod n))
  in
  match arb with
  | No_arb -> None
  | Identity -> Some (fun c -> Some c)
  | Reverse ->
    Some
      (fun c ->
        let n = Array.length c in
        Some (Array.init n (fun i -> c.(n - 1 - i))))
  | Rotor -> Some (fun c -> Some (rotate c))
  | Decline -> Some (fun _ -> None)
  | Duplicate ->
    Some
      (fun c ->
        let c = rotate c in
        c.(Array.length c - 1) <- c.(0);
        Some c)
  | Short -> Some (fun c -> Some (Array.sub c 1 (Array.length c - 1)))
  | Stranger ->
    Some
      (fun c ->
        let c = Array.copy c in
        c.(0) <- p;
        Some c)

let prop_channel_matches_ref =
  QCheck2.Test.make ~name:"channel = Ref_chan (both collision modes)"
    ~count:400
    QCheck2.Gen.(
      let* p = int_range 1 5 in
      let* detectable = bool in
      let pid = frequency [ (12, int_range 0 (p - 1)); (1, oneofl [ -1; p ]) ] in
      let op =
        frequency
          [
            ( 5,
              let* src = pid in
              let* release = int_range (-1) 3 in
              let* bcast = frequencyl [ (2, true); (1, false) ] in
              let* unis =
                list_size
                  (frequencyl [ (3, 0); (2, 1); (1, 2); (1, 3) ])
                  (pair pid bool)
              in
              return (Transmit { src; release; bcast; unis }) );
            (1, map (fun pid -> Silence pid) pid);
            ( 5,
              let* skip = frequencyl [ (1, -1); (8, 0); (3, 1); (1, 3) ] in
              let* arb =
                frequencyl
                  [ (4, No_arb); (2, Identity); (2, Reverse); (2, Rotor);
                    (1, Decline); (1, Duplicate); (1, Short); (1, Stranger) ]
              in
              return (Resolve { skip; arb }) );
            ( 2,
              let* skip = int_range 0 1 in
              let* bad = oneofl [ Duplicate; Short; Stranger ] in
              let* arb = oneofl [ No_arb; Identity; Reverse; Rotor; Decline ] in
              return (Reject { skip; bad; arb }) );
            ( 4,
              let* dst = pid in
              let* back = frequencyl [ (4, 0); (1, 1); (1, 2) ] in
              return (Receive { dst; back }) );
            ( 1,
              let* dst = int_range 0 (p - 1) in
              let* ahead = int_range 1 5 in
              let* arb = oneofl [ No_arb; Identity; Reverse; Rotor; Decline ] in
              return (Behind { dst; ahead; arb }) );
          ]
      in
      let* ops = list_size (int_range 1 80) op in
      return (p, detectable, ops))
    (fun (p, detectable, ops) ->
      let collision =
        if detectable then Config.Detectable else Config.Silent
      in
      let ch = Channel.create ~p ~collision () and rf = Ref_chan.create ~p ~collision in
      let next = ref 0 (* lowest slot that may still resolve *)
      and last = ref None (* the last slot resolved *)
      and payload = ref (ref 0) and fresh = ref 0 in
      let msg reuse =
        if not reuse then begin
          incr fresh;
          payload := ref !fresh
        end;
        !payload
      in
      let attempt f = try f () with Invalid_argument s -> Raised s in
      let both f g = (attempt f, attempt g) in
      let got_of n acc = Got (n, List.rev_map (fun (src, m) -> (src, !m)) acc) in
      let receive dst now =
        both
          (fun () ->
            let acc = ref [] in
            let n =
              Channel.receive_iter ch ~dst ~now (fun src m -> acc := (src, m) :: !acc)
            in
            got_of n !acc)
          (fun () ->
            let acc = ref [] in
            let n =
              Ref_chan.receive_iter rf ~dst ~now (fun src m -> acc := (src, m) :: !acc)
            in
            got_of n !acc)
      in
      let resolve ~now arb =
        let arbitrate = arbitration arb ~p ~now in
        both
          (fun () -> Slot (Channel.resolve ch ~now ?arbitrate ()))
          (fun () -> Slot (Ref_chan.resolve rf ~now ?arbitrate ()))
      in
      let counters () =
        ( (Channel.sent ch, Channel.lost ch, Channel.collisions ch),
          (Channel.busy_slots ch, Channel.successes ch, Channel.pending ch) )
      and ref_counters () =
        ( (Ref_chan.sent rf, Ref_chan.lost rf, Ref_chan.collisions rf),
          (Ref_chan.busy_slots rf, Ref_chan.successes rf, Ref_chan.pending rf) )
      in
      let run = function
        | Transmit { src; release; bcast; unis } ->
          let bcast = if bcast then Some (msg false) else None in
          let unis = List.map (fun (dst, reuse) -> (dst, msg reuse)) unis in
          let release = !next + release in
          both
            (fun () -> Channel.transmit ch ~src ~release ?bcast ~unis (); Done)
            (fun () -> Ref_chan.transmit rf ~src ~release ?bcast ~unis (); Done)
        | Silence pid ->
          both
            (fun () -> Channel.silence ch ~pid; Done)
            (fun () -> Ref_chan.silence rf ~pid; Done)
        | Resolve { skip; arb } ->
          let now =
            match !last with
            | Some slot when skip < 0 -> slot
            | _ -> !next + max 0 skip
          in
          if now >= !next then begin
            last := Some now;
            next := now + 1
          end;
          resolve ~now arb
        | Reject { skip; bad; arb } -> (
          let now = !next + skip in
          last := Some now;
          next := now + 1;
          let before = (counters (), ref_counters ()) in
          match resolve ~now bad with
          | Raised _, Raised _ ->
            if (counters (), ref_counters ()) <> before then
              (Raised "a rejected arbitration left a trace", Done)
            else (
              match resolve ~now arb with
              | (Slot _, Slot _) as again -> again
              | _, want -> (Raised "the slot did not resolve after a rejection", want))
          | outcome -> outcome)
        | Receive { dst; back } -> receive dst (!next - back)
        | Behind { dst; ahead; arb } -> (
          let slot = !next and now = !next + ahead in
          (* the receiver's clock is now [now]: slots before it are
             closed for good *)
          next := now;
          match receive dst now with
          | (Got _, Got _) as got when fst got <> snd got -> got
          | Got _, Got _ -> (
            let before = (counters (), ref_counters ()) in
            match resolve ~now:slot arb with
            | Raised _, Raised _ as raised ->
              if (counters (), ref_counters ()) <> before then
                (Raised "a rejected slot left a trace", Done)
              else raised
            | _, want -> (Raised "a slot behind a receive resolved", want))
          | outcome -> outcome)
      in
      let agree (got, want) = got = want && counters () = ref_counters () in
      List.for_all (fun op -> agree (run op)) ops
      && List.for_all (fun dst -> agree (receive dst !next)) (List.init p Fun.id))

(* -- engine integration -------------------------------------------- *)

let test_spec_name_transport_suffix () =
  let name tr =
    Runner.spec_name
      (Runner.spec ~seed:1 ?transport:tr ~algo:"da-q4" ~adv:"fair" ~p:4 ~t:8
         ~d:2 ())
  in
  Alcotest.(check string)
    "ptp keeps the historical name" "da-q4/fair/p4/t8/d2/seed1" (name None);
  Alcotest.(check string)
    "channel suffix" "da-q4/fair/p4/t8/d2/seed1@channel"
    (name (Some (Config.Channel Config.Silent)));
  Alcotest.(check string)
    "detectable suffix" "da-q4/fair/p4/t8/d2/seed1@channel-detect"
    (name (Some (Config.Channel Config.Detectable)))

let test_faults_rejected_on_channel () =
  let faults =
    match Doall_adversary.Fault.of_spec "drop=0.5" with
    | Ok (policy, _) -> policy
    | Error e -> Alcotest.fail e
  in
  check "engine rejects fault injection on the channel" true
    (try
       ignore
         (Runner.run ~transport:(Config.Channel Config.Silent) ~faults
            ~algo:"da-q4" ~adv:"fair" ~p:4 ~t:8 ~d:2 ());
       false
     with Invalid_argument _ -> true)

let probed_run ~transport ~algo ~adv ~p ~t ~d =
  let probe = Probe.create () in
  let r = Runner.run ~seed:3 ~probe ~transport ~algo ~adv ~p ~t ~d () in
  (r, Probe.snapshot probe)

let test_probe_counters () =
  let p = 8 and t = 48 and d = 4 in
  (* fair has no arbitration rule, so every multi-transmitter slot on
     the channel collides; on ptp the same counters stay at zero *)
  let _, chan_snap =
    probed_run ~transport:(Config.Channel Config.Detectable) ~algo:"paran1"
      ~adv:"fair" ~p ~t ~d
  in
  let c snap name = List.assoc name snap.Probe.counters in
  check "channel run collides" true (c chan_snap "net.collisions" > 0);
  check "channel has busy slots" true (c chan_snap "net.channel_busy" > 0);
  check "busy >= collisions" true
    (c chan_snap "net.channel_busy" >= c chan_snap "net.collisions");
  let _, ptp_snap =
    probed_run ~transport:Config.Ptp ~algo:"paran1" ~adv:"fair" ~p ~t ~d
  in
  check_int "ptp never collides" 0 (c ptp_snap "net.collisions");
  check_int "ptp has no channel slots" 0 (c ptp_snap "net.channel_busy")

let test_chan_adversary_inert_on_ptp () =
  (* the chan-* registry adversaries are fair-stepping latency-1; on
     point-to-point their contention rules are inert, so their metrics
     equal fair's exactly *)
  let run adv =
    (Runner.run ~seed:1 ~algo:"da-q4" ~adv ~p:8 ~t:32 ~d:4 ()).Runner.metrics
  in
  let base = run "fair" in
  List.iter
    (fun adv ->
      let m = run adv in
      check (adv ^ " = fair on ptp") true
        (m.Metrics.work = base.Metrics.work
        && m.Metrics.messages = base.Metrics.messages
        && m.Metrics.sigma = base.Metrics.sigma))
    [ "chan-ordered"; "chan-ordered-high"; "chan-rotor"; "chan-delayed";
      "chan-delayed-ordered" ]

(* Golden cells: exact (W, M, sigma) pins for the channel backend, the
   channel-side analogue of the ptp golden grid. Deterministic
   algorithms and adversaries only, so any semantic drift in slot
   resolution, backoff or arbitration shows up as a diff here. *)
let test_channel_golden_cells () =
  let cell ~collision ~algo ~adv =
    let m =
      (Runner.run ~seed:1 ~transport:(Config.Channel collision) ~algo ~adv
         ~p:12 ~t:48 ~d:4 ())
        .Runner.metrics
    in
    (m.Metrics.work, m.Metrics.messages, m.Metrics.sigma)
  in
  let expect name want got =
    if got <> want then
      let w, m, s = got and w', m', s' = want in
      Alcotest.failf "%s: got W=%d M=%d sigma=%d, want W=%d M=%d sigma=%d"
        name w m s w' m' s'
  in
  expect "da-q4/chan-ordered/silent" (216, 52, 17)
    (cell ~collision:Config.Silent ~algo:"da-q4" ~adv:"chan-ordered");
  expect "da-q4/fair/detect" (300, 72, 24)
    (cell ~collision:Config.Detectable ~algo:"da-q4" ~adv:"fair");
  expect "padet/fair/silent: total loss, oblivious wall" (576, 576, 47)
    (cell ~collision:Config.Silent ~algo:"padet" ~adv:"fair");
  expect "padet/chan-delayed-ordered/silent" (300, 299, 24)
    (cell ~collision:Config.Silent ~algo:"padet" ~adv:"chan-delayed-ordered");
  expect "da-q4/chan-ordered-high/silent" (240, 53, 19)
    (cell ~collision:Config.Silent ~algo:"da-q4" ~adv:"chan-ordered-high");
  expect "da-q4/chan-delayed/silent" (636, 159, 52)
    (cell ~collision:Config.Silent ~algo:"da-q4" ~adv:"chan-delayed")

(* Golden cells for the channel's halted and crashed receivers, with
   the invariant oracle on. Under [crash=at] the crashed pids never
   restart, so nothing is owed to them past their crash; under
   [crash=flaky] they restart and must still receive what was resolved
   while they were down. *)
let test_channel_crash_golden_cells () =
  let cell ~algo ~adv =
    let r =
      Runner.run ~seed:1 ~check:true
        ~transport:(Config.Channel Config.Detectable) ~algo ~adv ~p:16 ~t:64
        ~d:4 ()
    in
    let m = r.Runner.metrics in
    (m.Metrics.work, m.Metrics.messages, m.Metrics.sigma)
  in
  let expect name want got =
    if got <> want then
      let w, m, s = got and w', m', s' = want in
      Alcotest.failf "%s: got W=%d M=%d sigma=%d, want W=%d M=%d sigma=%d"
        name w m s w' m' s'
  in
  let crash_at = "strategy:crash=at:4:8:1;chan=ordered:0"
  and flaky = "strategy:crash=flaky:4:2;chan=ordered:0" in
  expect "paran1/crash-at" (328, 327, 36) (cell ~algo:"paran1" ~adv:crash_at);
  expect "da-q4/crash-at" (200, 40, 20) (cell ~algo:"da-q4" ~adv:crash_at);
  expect "paran1/flaky" (682, 682, 61) (cell ~algo:"paran1" ~adv:flaky);
  expect "da-q4/flaky" (781, 27, 70) (cell ~algo:"da-q4" ~adv:flaky)

let test_channel_grid_determinism () =
  (* jobs=1/2/4 must be byte-identical for channel cells too *)
  let specs =
    Runner.grid ~seeds:[ 1; 2 ]
      ~transport:(Config.Channel Config.Detectable)
      ~algos:[ "da-q4"; "paran1"; "coord" ]
      ~advs:[ "fair"; "chan-ordered"; "chan-delayed" ]
      ~points:[ (6, 24, 3) ] ()
  in
  let key (r : Runner.result) =
    let m = r.Runner.metrics in
    (m.Metrics.work, m.Metrics.messages, m.Metrics.sigma, m.Metrics.executions)
  in
  let at jobs = List.map key (Runner.run_grid ~jobs specs) in
  let j1 = at 1 in
  List.iter
    (fun jobs ->
      if at jobs <> j1 then
        Alcotest.failf "channel grid differs at jobs=%d" jobs)
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "single contender delivers" `Quick
      test_single_contender_delivers;
    Alcotest.test_case "silent collision loses both" `Quick
      test_silent_collision_loses_both;
    Alcotest.test_case "detectable backoff serializes" `Quick
      test_detectable_backoff_serializes;
    Alcotest.test_case "arbitration grants head, defers rest" `Quick
      test_arbitration_grants_head_defers_rest;
    Alcotest.test_case "declined arbitration collides" `Quick
      test_arbitration_decline_collides;
    Alcotest.test_case "arbitration must permute" `Quick
      test_arbitration_must_permute;
    Alcotest.test_case "a slot behind a receive is rejected" `Quick
      test_slot_behind_receive_rejected;
    Alcotest.test_case "frame validation" `Quick test_frame_validation;
    Alcotest.test_case "message counting on a shared medium" `Quick
      test_message_counting_mixed_frame;
    Alcotest.test_case "frames and delivered copies allocate nothing" `Quick
      test_frames_allocate_nothing;
    QCheck_alcotest.to_alcotest delivers_iff_single_contender;
    QCheck_alcotest.to_alcotest prop_channel_matches_ref;
    Alcotest.test_case "spec_name transport suffix" `Quick
      test_spec_name_transport_suffix;
    Alcotest.test_case "faults rejected on channel" `Quick
      test_faults_rejected_on_channel;
    Alcotest.test_case "net.collisions / net.channel_busy probes" `Quick
      test_probe_counters;
    Alcotest.test_case "chan adversaries inert on ptp" `Quick
      test_chan_adversary_inert_on_ptp;
    Alcotest.test_case "channel golden cells" `Quick
      test_channel_golden_cells;
    Alcotest.test_case "channel golden cells: crashed and restarted pids" `Quick
      test_channel_crash_golden_cells;
    Alcotest.test_case "channel grid bit-determinism" `Slow
      test_channel_grid_determinism;
  ]
