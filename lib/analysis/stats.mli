(** Descriptive statistics and log-log regression.

    Used by the experiment catalog to summarize repeated randomized runs
    and to fit empirical growth exponents (e.g. the [p^epsilon] factor of
    DA's work is estimated as the slope of [log W] against [log p]). *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1); 0 for n < 2 *)
  min : float;
  max : float;
  median : float;
  ci95 : float;  (** half-width of the 95% normal-approximation CI *)
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list. *)

val mean : float list -> float
val median : float list -> float

type fit = { slope : float; intercept : float; r2 : float }

val loglog_fit : (float * float) list -> fit
(** Ordinary least squares on [(log x, log y)]: [slope] is the
    empirical growth exponent. Pairs with non-positive coordinates are
    dropped; at least two distinct x values must remain. *)
