(** Structured run-diff: compare two observability artifacts — JSONL
    snapshot streams ([doall run --obs], [doall trace --jsonl]) or
    whole-file JSON documents (BENCH_*.json, [--chrome] traces) — with
    per-metric tolerances ([doall obs diff A B]).

    The determinism contract (docs/OBSERVABILITY.md) says everything in
    these artifacts is bit-stable except wall-clock-derived numbers. The
    diff enforces exactly that split:

    - {e machine-dependent} values — any value under a key whose name
      contains ["wall"], ["speedup"], ["rss"], ["measured"] or
      ["seconds"], or is ["ns"]/[…_ns] — pass when within an absolute
      slack of 1 s {e or} a max/min ratio of at most [?tol]
      (default 1.5, same sign);
    - every other value must be {e exactly} equal, field for field,
      line for line.

    A comparison yields {!finding}s (empty = artifacts agree); loading
    or parse failures are [Error]s. The CLI maps these onto exit codes
    0 (clean) / 1 (findings) / 2 (load error). *)

type finding = {
  path : string;  (** JSONPath-ish locator, prefixed [line N] for JSONL *)
  expected : string;  (** rendered value from the first artifact *)
  actual : string;  (** rendered value from the second artifact *)
  machine : bool;
      (** true when the difference is in a machine-dependent key (it
          exceeded the tolerance, not just differed) *)
}

val pp_finding : Format.formatter -> finding -> unit

val compare_files : ?tol:float -> string -> string -> (finding list, string) result
