(* End-to-end properties tying the measured complexities to the paper's
   claims: subquadratic work when d = o(t), graceful degradation in d,
   the d = Theta(t) quadratic wall, Lemma 6.1's d-contention bound, and
   randomized-run reproducibility. *)

open Doall_core
open Doall_sim
open Doall_perms

let check = Alcotest.(check bool)

let work ?(seed = 1) ~algo ~adv ~p ~t ~d () =
  (Runner.run ~seed ~algo ~adv ~p ~t ~d ()).Runner.metrics.Metrics.work

let test_subquadratic_when_d_small () =
  (* With d = 1 every coordinated algorithm must beat the oblivious
     p*t by a wide margin at p = t = 64. *)
  let p = 64 and t = 64 in
  let quadratic = p * t in
  List.iter
    (fun algo ->
      let w = work ~algo ~adv:"max-delay" ~p ~t ~d:1 () in
      check
        (Printf.sprintf "%s subquadratic: %d < %d/4" algo w quadratic)
        true
        (w < quadratic / 4))
    [ "da-q2"; "da-q4"; "paran1"; "paran2"; "padet" ]

let test_degrades_gracefully () =
  (* Work under max-delay is (weakly) worse as d grows, allowing small
     noise from discretization. *)
  List.iter
    (fun algo ->
      let w1 = work ~algo ~adv:"max-delay" ~p:32 ~t:64 ~d:1 () in
      let w64 = work ~algo ~adv:"max-delay" ~p:32 ~t:64 ~d:64 () in
      check
        (Printf.sprintf "%s: w(d=64)=%d >= w(d=1)=%d" algo w64 w1)
        true
        (float_of_int w64 >= 0.95 *. float_of_int w1))
    [ "da-q2"; "da-q4"; "paran1"; "padet" ]

let test_quadratic_wall () =
  (* Proposition 2.2: when d >= t nothing can beat Theta(p*t) against an
     adversary that withholds all messages until the end: under max-delay
     with d = t, processors effectively work alone. Work should be a
     constant fraction of p*t. *)
  let p = 16 and t = 64 in
  List.iter
    (fun algo ->
      let w = work ~algo ~adv:"max-delay" ~p ~t ~d:t () in
      check
        (Printf.sprintf "%s at d=t: %d >= pt/8" algo w)
        true
        (w >= p * t / 8))
    [ "paran1"; "padet" ]

let test_beats_trivial_except_at_wall () =
  let p = 32 and t = 32 in
  let w_triv = work ~algo:"trivial" ~adv:"max-delay" ~p ~t ~d:1 () in
  List.iter
    (fun algo ->
      let w = work ~algo ~adv:"max-delay" ~p ~t ~d:1 () in
      check (Printf.sprintf "%s beats trivial at d=1" algo) true (w < w_triv))
    [ "da-q2"; "paran1"; "padet" ]

(* Registry adversaries outside the model of Lemma 6.1, which has none
   of these: message faults (lossy-half, lossy-all, dup-storm), restarts
   (flaky-restart), both (chaos), or a shared-channel policy (the five
   chan-* adversaries). *)
let outside_lemma_6_1 =
  [ "lossy-half"; "lossy-all"; "dup-storm"; "flaky-restart"; "chaos";
    "chan-ordered"; "chan-ordered-high"; "chan-rotor"; "chan-delayed";
    "chan-delayed-ordered" ]

let test_lemma_6_1_bound () =
  (* Work of PaDet with explicit psi is bounded by (d)-Cont(psi) against
     a d-adversary (Lemma 6.1): every other registry adversary, at
     d = 1, 2, 3, 4, 8, on three seeded lists. Exact d-contention needs
     n <= 8. *)
  let n = 8 and ds = [ 1; 2; 3; 4; 8 ] in
  let in_model (a : Adversary.t) =
    Option.is_none a.faults && Option.is_none a.restart
    && Option.is_none a.channel
  in
  List.iter
    (fun seed ->
      let psi = Gen.seeded_list ~seed ~n ~count:n in
      let algo = Algo_pa.make_det ~psi () in
      List.iter
        (fun (spec : Runner.adv_spec) ->
          let adv = spec.adv_name in
          let inside =
            List.for_all (fun d -> in_model (spec.instantiate ~p:n ~t:n ~d)) ds
          in
          check (adv ^ " is outside the model iff listed")
            (not (List.mem adv outside_lemma_6_1))
            inside;
          if inside then
            List.iter
              (fun d ->
                let cfg = Config.make ~seed:4 ~p:n ~t:n () in
                let adversary = spec.instantiate ~p:n ~t:n ~d in
                let m = Engine.run_packed algo cfg ~d ~adversary () in
                check "completed" true m.Metrics.completed;
                let dcont = Contention.d_contention_exact ~d psi in
                (* task-performing steps = executions; Lemma 6.1 bounds
                   those. *)
                check
                  (Printf.sprintf "%s psi seed %d d=%d: executions %d <= dCont %d"
                     adv seed d m.Metrics.executions dcont)
                  true
                  (m.Metrics.executions <= dcont))
              ds)
        Runner.adversaries)
    [ 123; 124; 125 ]

let test_randomized_reproducible_with_seed () =
  let r1 = Runner.run ~seed:9 ~algo:"paran2" ~adv:"random-half" ~p:8 ~t:32 ~d:4 () in
  let r2 = Runner.run ~seed:9 ~algo:"paran2" ~adv:"random-half" ~p:8 ~t:32 ~d:4 () in
  check "bitwise-identical metrics" true
    (r1.Runner.metrics = r2.Runner.metrics)

let test_da_q_tradeoff_exists () =
  (* Larger q lowers the traversal depth; at least the family must be
     well-ordered enough that some q in 2..8 beats q=2 on a big fair
     instance, demonstrating the p^epsilon knob. *)
  let p = 64 and t = 64 in
  let w2 = work ~algo:"da-q2" ~adv:"fair" ~p ~t ~d:1 () in
  let better =
    List.exists
      (fun q ->
        work ~algo:(Printf.sprintf "da-q%d" q) ~adv:"fair" ~p ~t ~d:1 () < w2)
      [ 3; 4; 5; 6; 7; 8 ]
  in
  check "some q beats q=2" true better

let test_work_scales_with_t_not_explosively () =
  (* Fixed p and d: doubling t should not quadruple work for PA (bound is
     ~ t log p + p d log(2+t/d)). *)
  let w64 = work ~algo:"padet" ~adv:"uniform-delay" ~p:16 ~t:64 ~d:4 () in
  let w128 = work ~algo:"padet" ~adv:"uniform-delay" ~p:16 ~t:128 ~d:4 () in
  check
    (Printf.sprintf "w(t=128)=%d <= 3.5 * w(t=64)=%d" w128 w64)
    true
    (float_of_int w128 <= 3.5 *. float_of_int w64)

let test_effort_identity () =
  let m = (Runner.run ~algo:"paran1" ~adv:"fair" ~p:6 ~t:24 ~d:2 ()).Runner.metrics in
  Alcotest.(check int) "effort = W + M"
    (m.Metrics.work + m.Metrics.messages)
    (Metrics.effort m)

let test_crash_storm_correctness () =
  (* Repeated random crash patterns with a survivor: always completes,
     and the survivor alone may end up doing everything. *)
  List.iter
    (fun seed ->
      let r =
        Runner.run ~seed ~algo:"da-q4" ~adv:"crash-staggered" ~p:8 ~t:32 ~d:4 ()
      in
      check "completed under crash storm" true
        r.Runner.metrics.Metrics.completed)
    [ 1; 2; 3; 4; 5 ]

let test_scale_smoke () =
  (* Larger instances than the benches use: no overflow, no blowup, the
     delay-sensitive ordering intact. *)
  let p = 128 and t = 1024 and d = 32 in
  List.iter
    (fun algo ->
      let r = Runner.run ~seed:1 ~algo ~adv:"uniform-delay" ~p ~t ~d () in
      let m = r.Runner.metrics in
      if not m.Metrics.completed then Alcotest.failf "%s timed out" algo;
      if m.Metrics.work >= p * t then
        Alcotest.failf "%s not subquadratic at scale: W=%d >= %d" algo
          m.Metrics.work (p * t))
    [ "da-q4"; "paran1"; "padet" ]

let suite =
  [
    Alcotest.test_case "scale smoke (p=128, t=1024)" `Slow test_scale_smoke;
    Alcotest.test_case "subquadratic when d small" `Slow
      test_subquadratic_when_d_small;
    Alcotest.test_case "graceful degradation in d" `Slow
      test_degrades_gracefully;
    Alcotest.test_case "quadratic wall at d = t" `Quick test_quadratic_wall;
    Alcotest.test_case "beats trivial at d=1" `Quick
      test_beats_trivial_except_at_wall;
    Alcotest.test_case "Lemma 6.1: executions <= d-contention" `Quick
      test_lemma_6_1_bound;
    Alcotest.test_case "randomized runs reproducible by seed" `Quick
      test_randomized_reproducible_with_seed;
    Alcotest.test_case "DA q trade-off visible" `Slow test_da_q_tradeoff_exists;
    Alcotest.test_case "work growth in t is tame" `Quick
      test_work_scales_with_t_not_explosively;
    Alcotest.test_case "effort identity" `Quick test_effort_identity;
    Alcotest.test_case "crash storms" `Quick test_crash_storm_correctness;
  ]
