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
  check "busy" true slot.Channel.slot_busy;
  check "no collision" false slot.Channel.slot_collided;
  check_int "one logical message delivered" 1 slot.Channel.slot_delivered;
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
  check "collided" true slot.Channel.slot_collided;
  check_int "nothing delivered" 0 slot.Channel.slot_delivered;
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
  check "collision detected" true s0.Channel.slot_collided;
  check_int "nothing lost" 0 (Channel.lost ch);
  (* src 1 retries at slot 1 (1 mod 3 = 1), src 0 at slot 3 *)
  let s1 = Channel.resolve ch ~now:1 () in
  check "src 1 alone at slot 1" true
    ((not s1.Channel.slot_collided) && s1.Channel.slot_delivered = 1);
  let s2 = Channel.resolve ch ~now:2 () in
  check "slot 2 idle" false s2.Channel.slot_busy;
  let s3 = Channel.resolve ch ~now:3 () in
  check "src 0 alone at slot 3" true
    ((not s3.Channel.slot_collided) && s3.Channel.slot_delivered = 1);
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
  check "arbitrated slot is not a collision" false s0.Channel.slot_collided;
  check_int "one delivery" 1 s0.Channel.slot_delivered;
  let s1 = Channel.resolve ch ~now:1 ~arbitrate:reverse () in
  let s2 = Channel.resolve ch ~now:2 ~arbitrate:reverse () in
  check "deferred frames drain one per slot" true
    (s1.Channel.slot_delivered = 1 && s2.Channel.slot_delivered = 1);
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
  check "declined arbitration collides" true slot.Channel.slot_collided;
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
  let slot = Channel.resolve ch ~now:0 () in
  check_int "all delivered in one slot" 3 slot.Channel.slot_delivered;
  (* dst 1 gets the broadcast and its unicast; dst 3 only the bcast *)
  check_int "dst 1" 2 (Channel.receive_iter ch ~dst:1 ~now:1 (fun _ _ -> ()));
  check_int "dst 3" 1 (Channel.receive_iter ch ~dst:3 ~now:1 (fun _ _ -> ()))

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
      slot.Channel.slot_busy = (contenders > 0)
      && slot.Channel.slot_collided = (contenders >= 2)
      && slot.Channel.slot_delivered = (if contenders = 1 then 1 else 0)
      && received = (if contenders = 1 then 1 else 0)
      && Channel.sent ch = contenders
      &&
      (* silent collisions lose the frames; detectable keeps them *)
      if contenders >= 2 then
        if detectable then Channel.lost ch = 0
        else Channel.lost ch = contenders
      else Channel.lost ch = 0)

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
    Alcotest.test_case "frame validation" `Quick test_frame_validation;
    Alcotest.test_case "message counting on a shared medium" `Quick
      test_message_counting_mixed_frame;
    QCheck_alcotest.to_alcotest delivers_iff_single_contender;
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
    Alcotest.test_case "channel grid bit-determinism" `Slow
      test_channel_grid_determinism;
  ]
