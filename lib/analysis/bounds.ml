(* bases are clamped to [> 1.000001] and arguments to [>= 1] *)
let log_base ~base x =
  let base = max 1.000001 base in
  let x = max 1.0 x in
  log x /. log base

(* a delay bound below 1 runs as d = 1 (Engine.create clamps it), so the
   bounds read it the same way *)
let delay d = float_of_int (max 1 d)

let lower_bound ~p ~t ~d =
  let pf = float_of_int p and tf = float_of_int t and df = delay d in
  tf
  +. (pf *. Float.min df tf *. log_base ~base:(df +. 1.0) (df +. tf))

let oblivious_work ~p ~t = float_of_int (p * t)

let da_upper ~p ~t ~d ~epsilon =
  let pf = float_of_int p and tf = float_of_int t and df = delay d in
  (tf *. (pf ** epsilon))
  +. (pf *. Float.min tf df *. (Float.ceil (tf /. df) ** epsilon))

let pa_upper ~p ~t ~d =
  let pf = float_of_int p and tf = float_of_int t and df = delay d in
  let n = Float.min pf tf in
  (tf *. log (max 2.0 n))
  +. (pf *. Float.min tf df *. log (2.0 +. (tf /. df)))

let epsilon_of_q ~q =
  let qf = float_of_int q in
  log_base ~base:qf (4.0 *. log qf)
