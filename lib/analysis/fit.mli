(** Model selection: which theoretical curve explains a measured sweep?

    Given work measurements across the delay bound [d] at fixed [(p, t)],
    fit each candidate bound shape from the paper by a single
    multiplicative constant (least squares through the origin) and rank
    by goodness of fit. Used by benchmark E17 to confirm, per algorithm,
    that the {e right} theorem's shape wins — a stronger statement than
    eyeballing a ratio column. *)

type model = {
  model_name : string;
  predict : p:int -> t:int -> d:int -> float;  (** shape, constants free *)
}

type fitted = {
  model : model;
  constant : float;  (** fitted multiplier *)
  r2 : float;  (** 1 - SS_res / SS_tot over the sweep *)
}

val rank : p:int -> t:int -> (int * float) list -> fitted list
(** Every candidate shape fitted to the [(d, measured_work)] points
    (at least one; shapes must be positive on them), best (highest r2)
    first. The shapes from the paper, in rough order of growth:
    - ["t (delay-free)"]: constant in d;
    - ["lower bound"]: [t + p min(d,t) log_{d+1}(d+t)] (Thms 3.1/3.4);
    - ["pa upper"]: [t log n + p min(d,t) log(2+t/d)] (Thm 6.2);
    - ["da upper (e=0.3)"]: [t p^0.3 + p min(d,t) ceil(t/d)^0.3] (Thm 5.5);
    - ["linear p*d"]: [t + p d] (naive waiting cost);
    - ["quadratic p*t"]: constant at [p t] (Prop. 2.2 wall). *)

val best : p:int -> t:int -> (int * float) list -> fitted
