type t = {
  p : int;
  t : int;
  d : int;
  work : int;
  messages : int;
  sigma : int;
  executions : int;
  completed : bool;
  halted : int;
  crashed : int;
  per_proc_work : int array;
}

let redundant m = if m.completed then m.executions - m.t else m.executions
let effort m = m.work + m.messages

let pp ppf m =
  Format.fprintf ppf
    "p=%d t=%d d=%d | W=%d M=%d sigma=%d exec=%d redundant=%d%s" m.p m.t m.d
    m.work m.messages m.sigma m.executions (redundant m)
    (if m.completed then "" else " [TIMED OUT]")
