(* The epoch-digest fast path (Network ?digest / Algorithm.merge_homomorphic)
   must be invisible everywhere except wall clock: folding one epoch's
   broadcasts and applying the digest once has to leave every receiver's
   knowledge, every payload it re-broadcasts, and every counter exactly
   where the per-record walk would. Three layers of pins: the bitset
   algebra (QCheck), raw network traffic against the list reference, and
   full engine runs compared probe-counter by probe-counter. *)

open Doall_sim
open Doall_adversary
open Doall_core

(* fair scheduling, every message takes the full [d] *)
let max_delay = Adversary.make ~name:"max-delay" ~delay:Delay.maximal ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Property: applying union_snapshots(snapshots) once = applying each
   snapshot in turn, and neither way of applying them (nor the
   receivers' later writes) changes a snapshot. *)

let snapshots_gen =
  QCheck2.Gen.(
    let* n = oneof [ int_range 1 300; oneofl [ 4096; 4097 ] ] in
    let* receiver = list_size (int_range 0 40) (int_range 0 (n - 1)) in
    let* senders =
      list_size (int_range 1 12)
        (list_size (int_range 0 25) (int_range 0 (n - 1)))
    in
    let* later = list_size (int_range 0 10) (int_range 0 (n - 1)) in
    return (n, receiver, senders, later))

let prop_digest_equals_sequential =
  QCheck2.Test.make ~name:"digest apply = sequential applies" ~count:300
    snapshots_gen (fun (n, receiver, senders, later) ->
      (* one sender lineage: each snapshot extends the previous one, so
         the inputs share chunks the way relayed knowledge does *)
      let live = Bitset.create n in
      let snaps, models =
        List.split
          (List.map
             (fun is ->
               List.iter (Bitset.set live) is;
               (Bitset.snapshot live, Bitset.to_list live))
             senders)
      in
      let snaps = Array.of_list snaps in
      let seq = Bitset.of_list n receiver in
      Array.iter (fun s -> Bitset.union_into ~dst:seq s) snaps;
      let dig = Bitset.of_list n receiver in
      Bitset.union_into ~dst:dig (Bitset.union_snapshots snaps);
      let same =
        Bitset.equal seq dig && Bitset.cardinal seq = Bitset.cardinal dig
      in
      List.iter
        (fun i ->
          Bitset.set seq i;
          Bitset.set dig i;
          Bitset.set live i)
        later;
      same
      && Bitset.equal seq dig
      && List.for_all2
           (fun s m -> Bitset.to_list s = m)
           (Array.to_list snaps) models)

(* ------------------------------------------------------------------ *)
(* Backend parity: identical broadcast traffic through the list
   reference (Ref_net), the ring network, and ring + digest must agree
   on sends and logical deliveries, and every destination must receive
   the reference's records in the reference's order. Payloads are
   record sets and the digest is their union (Ref_net.union), so a
   chained digest may repeat records the receiver holds, but it may
   carry none not yet due to it. Two polling schedules: every receiver
   polls every step on the common clock; or receivers skip polls for
   several steps, so one digest spans several epochs, and some poll on
   their own clocks, lagging the others, so the chain often ends with
   records not yet due to them. *)

let test_backend_parity () =
  let p = 8 in
  let due_of = Hashtbl.create 64 in
  let steps = 40 in
  let drive ~clock ~broadcast ~receive_iter ~sent =
    let got = Array.init p (fun dst -> Ref_net.arrivals ~dst) in
    let delivered = ref 0 and ok = ref true and id = ref 0 in
    let spans = ref 0 and singles = ref 0 in
    for now = 0 to steps do
      for dst = 0 to p - 1 do
        match clock ~dst ~now with
        | None -> ()
        | Some now ->
          delivered :=
            !delivered
            + receive_iter ~dst ~now (fun src msg ->
                  let due (_, i) = Hashtbl.find due_of i in
                  (* the distinct dues of the records new to [dst] *)
                  let fresh =
                    List.filter
                      (fun ((s, _) as r) ->
                        s <> dst && not (Hashtbl.mem got.(dst).Ref_net.seen r))
                      msg
                    |> List.map due |> List.sort_uniq compare
                  in
                  if src < 0 && List.length fresh > 1 then incr spans;
                  if src >= 0 then incr singles;
                  ok :=
                    !ok
                    && Ref_net.arrive got.(dst) ~src msg
                    && List.for_all (fun r -> due r <= now) msg)
      done;
      if now <= 30 then
        (* two same-due broadcasts per step: multi-record epochs, one of
           which periodically lands on a destination's own source *)
        List.iter
          (fun src ->
            incr id;
            Hashtbl.replace due_of !id (now + 3);
            broadcast ~src ~due:(now + 3) [ (src, !id) ])
          [ now mod p; (now + 3) mod p ]
    done;
    ( (sent (), !delivered, !ok, Array.map (fun a -> a.Ref_net.order) got),
      (!spans, !singles) )
  in
  let parity name clock =
    let drive_net net =
      drive ~clock ~broadcast:(Network.broadcast net)
        ~receive_iter:(Network.receive_iter net) ~sent:(fun () ->
          Network.sent net)
    in
    let (fs, fd, fok, fg), _ =
      let rf = Ref_net.create ~p in
      drive ~clock ~broadcast:(Ref_net.broadcast rf)
        ~receive_iter:(Ref_net.receive_iter rf) ~sent:(fun () ->
          Ref_net.sent rf)
    in
    let (rs, rd, rok, rg), _ = drive_net (Network.create ~horizon:8 ~p ()) in
    let (ds, dd, dok, dg), shapes =
      drive_net (Network.create ~digest:Ref_net.union ~horizon:8 ~p ())
    in
    let check what = check (name ^ ": " ^ what)
    and check_int what = check_int (name ^ ": " ^ what) in
    check_int "net.sends: reference = ring" fs rs;
    check_int "net.sends: ring = digest" rs ds;
    check_int "net.deliveries: reference = ring" fd rd;
    check_int "net.deliveries: ring = digest" rd dd;
    check "per-record deliveries bring new records only" true (fok && rok);
    check "digests carry only due records" true dok;
    check "per-dst records: reference = ring" true (fg = rg);
    check "per-dst records: ring = digest" true (rg = dg);
    shapes
  in
  let _ : int * int = parity "common clock" (fun ~dst:_ ~now -> Some now) in
  (* pids 1, 2, 3 (and 5, 6, 7) poll every 2, 3, 4 steps; pids 4..7 run
     1..4 steps behind; every pid polls at the last step *)
  let spans, singles =
    parity "skipped polls, lagging clocks" (fun ~dst ~now ->
        if now = steps || now mod (1 + (dst mod 4)) = 0 then
          Some (max 0 (now - max 0 (dst - 3)))
        else None)
  in
  check "one digest brings new records of several epochs" true (spans > 0);
  check "a lagging receiver takes records one at a time" true (singles > 0)

let test_digest_sources_are_anonymous () =
  (* A digest delivery carries src = -1: it stands for a whole epoch,
     not any single sender. *)
  let net = Network.create ~digest:(fun msgs -> Array.to_list msgs |> List.concat) ~horizon:4 ~p:4 () in
  Network.broadcast net ~src:0 ~due:2 [ 10 ];
  Network.broadcast net ~src:1 ~due:2 [ 11 ];
  let srcs = ref [] in
  let n = Network.receive_iter net ~dst:2 ~now:5 (fun src _ -> srcs := src :: !srcs) in
  check_int "two logical deliveries" 2 n;
  Alcotest.(check (list int)) "one callback, src = -1" [ -1 ] !srcs

(* Digests chain while broadcasts are in flight; once the log drains,
   the network lets the last digest go. *)
let test_idle_network_holds_no_digest () =
  let made = Weak.create 1 in
  let[@inline never] run net =
    for now = 0 to 5 do
      ignore (Network.receive_iter net ~dst:2 ~now (fun _ _ -> ()));
      Network.broadcast net ~src:0 ~due:(now + 1) [ (0, 2 * now) ];
      Network.broadcast net ~src:1 ~due:(now + 1) [ (1, (2 * now) + 1) ]
    done;
    for dst = 0 to 2 do
      ignore (Network.receive_iter net ~dst ~now:10 (fun _ _ -> ()))
    done
  in
  let fold ms =
    let d = Ref_net.union ms in
    Weak.set made 0 (Some d);
    d
  in
  let net = Network.create ~digest:fold ~horizon:4 ~p:3 () in
  run net;
  Gc.full_major ();
  check "the last digest is collected" false (Weak.check made 0);
  (* the network itself stays reachable up to here *)
  check_int "nothing pending" 0 (Network.pending net)

(* ------------------------------------------------------------------ *)
(* Engine parity: declared (stream + digest) vs stripped
   ([Adversary.per_copy] = general path) runs agree on metrics and on the net.sends /
   net.deliveries probe counters, for both merge-homomorphic families. *)

let metrics_key (m : Metrics.t) =
  ( (m.Metrics.work, m.Metrics.messages, m.Metrics.sigma),
    (m.Metrics.executions, m.Metrics.completed, m.Metrics.halted),
    Array.to_list m.Metrics.per_proc_work )

let counted_run algo adv =
  let cfg = Config.make ~seed:5 ~p:24 ~t:160 () in
  let probe = Probe.create () in
  let m = Engine.run_packed algo cfg ~d:6 ~adversary:adv ~probe ~check:true () in
  let c name = Probe.counter_value (Probe.counter probe name) in
  (metrics_key m, c "net.sends", c "net.deliveries")

let test_engine_probe_parity () =
  List.iter
    (fun (name, algo) ->
      List.iter
        (fun (vname, adv) ->
          let fast = counted_run algo adv in
          let slow = counted_run algo (Adversary.per_copy adv) in
          check
            (Printf.sprintf "%s under %s: declared = stripped" name vname)
            true (fast = slow))
        [
          ("fair", Adversary.fair);
          ("max-delay", max_delay);
          ( "laggard",
            Adversary.make ~name:"laggard"
              ~schedule:Schedule.adaptive_laggard () );
        ])
    [
      ("paran1", Algo_pa.make_ran1 ());
      ("paran1-single", Algo_pa.make_ran1 ~gossip:`Single ());
      ("da-q4", Algo_da.make ~q:4 ());
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_digest_equals_sequential;
    Alcotest.test_case "backend parity (Ref_net|ring|digest)" `Quick
      test_backend_parity;
    Alcotest.test_case "digest deliveries are source-anonymous" `Quick
      test_digest_sources_are_anonymous;
    Alcotest.test_case "an idle network holds no digest" `Quick
      test_idle_network_holds_no_digest;
    Alcotest.test_case "engine probe parity (declared = stripped)" `Quick
      test_engine_probe_parity;
  ]
