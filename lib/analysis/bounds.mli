(** Closed forms of every bound proved in the paper.

    All functions return the bound {e without} its hidden constant: they
    are shape functions for comparing growth against measurements (ratio
    curves should flatten, crossovers should match), not predictions of
    absolute values. A delay bound [d < 1] is read as [d = 1], the value
    the engine runs with. *)

val lower_bound : p:int -> t:int -> d:int -> float
(** Theorems 3.1 and 3.4: [t + p min(d,t) log_{d+1}(d+t)] — the
    delay-sensitive lower bound on (expected) work for any algorithm. *)

val oblivious_work : p:int -> t:int -> float
(** [p * t], the no-communication solution (and the Prop. 2.2 floor when
    [d = Omega(t)]). *)

val da_upper : p:int -> t:int -> d:int -> epsilon:float -> float
(** Theorem 5.5: [t p^e + p min(t,d) ceil(t/d)^e]. *)

val pa_upper : p:int -> t:int -> d:int -> float
(** Theorem 6.2 / Corollary 6.4-6.5:
    [t log p + p min(t,d) log(2 + t/d)] (with [log n] for [n = min(p,t)]
    in the first summand, per Theorem 6.2). *)

val epsilon_of_q : q:int -> float
(** The exponent achieved by DA(q) in Theorem 5.4's proof:
    [log_q (4 a log q)] with the proof's constant folded to [a = 1] —
    usable for qualitative "larger q gives smaller epsilon" checks. *)
