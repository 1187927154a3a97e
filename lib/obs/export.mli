(** Versioned machine-readable artifacts: JSON values and JSONL streams.

    Every JSONL line this module writes is a single-line JSON object
    carrying [{"v": 1, "kind": <string>, ...}]; the per-kind schemas are
    documented in [docs/OBSERVABILITY.md] and validated line-by-line in
    CI. The writers cover the three run-shaped artifacts:

    - {!write_run}: a [run] header, the final {!Doall_sim.Metrics.t},
      and every instrument of a {!Probe.snapshot} (one line each) —
      what [doall run --obs out.jsonl] emits;
    - {!write_trace}: a [trace] header, the metrics, and one [event]
      line per {!Doall_sim.Trace.event} — [doall trace --jsonl];
    - {!Json}: the value type of whole-file JSON documents (the frozen
      BENCH_*.json records, Chrome traces) rather than JSONL. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line rendering. Strings are escaped per RFC 8259;
      non-finite floats render as [null]. *)

  val pp_to_channel : out_channel -> t -> unit
  (** Multi-line, 2-space-indented rendering (for whole-file artifacts
      like BENCH_*.json). *)

  val of_string : string -> (t, string) result
  (** Parse one RFC 8259 document. Numeric literals containing ['.'],
      ['e'] or ['E'] parse as {!Float}, bare integers as {!Int} —
      matching what the printers emit, so values round-trip with their
      exact/approximate character intact (what {!Diff} keys on).
      Errors carry a byte offset. Malformed input is an [Error], never
      an exception; so is a document nested deeper than 512 lists and
      objects. *)
end

val line : out_channel -> kind:string -> (string * Json.t) list -> unit
(** [line oc ~kind fields] writes one newline-terminated JSONL object
    [{"v": 1, "kind": kind, fields…}], [1] being the schema version. *)

val snapshot_lines : Probe.snapshot -> (string * (string * Json.t) list) list
(** One [(kind, fields)] pair per instrument: kinds [counter], [gauge],
    [histogram], [vector], [series]. Histogram buckets carry explicit
    inclusive [lo]/[hi] bounds, and every histogram line carries exact
    bucket-certified [p50]/[p90]/[p99] intervals ([[lo, hi]] pairs from
    {!Probe.percentile}). *)

val write_run :
  out_channel ->
  meta:(string * Json.t) list ->
  ?snapshot:Probe.snapshot ->
  ?spans:Span.snapshot ->
  Doall_sim.Metrics.t ->
  unit
(** Header line (kind [run], with [meta] inlined), the [metrics] line
    (p, t, d, work, messages, sigma, executions, redundant, completed,
    halted, crashed, per_proc_work), then the snapshot's instrument
    lines, then, when a span snapshot is given, a [phases] line: a
    ["phases"] list with one [{"name", "wall_s", "count"}] object per
    engine phase. [wall_s] is machine-dependent (named so {!Diff}
    tolerance-gates it); [count] is deterministic. *)

val write_trace :
  out_channel ->
  meta:(string * Json.t) list ->
  Doall_sim.Metrics.t ->
  Doall_sim.Trace.t ->
  unit
(** Header line (kind [trace]), the metrics line, then one [event] line
    (a ["type"] tag plus the event's fields) per trace event in
    recording order (via {!Doall_sim.Trace.fold} —
    no intermediate list). *)

val write_table :
  out_channel -> exp:string -> name:string -> Doall_analysis.Table.t -> unit
(** One [table] header line (experiment id, stable table name, title,
    column list, row count, notes) followed by one [row] line per table
    row with cells keyed by column name — what [doall exp run --jsonl]
    emits for every table an experiment renders. *)

val with_out : string -> (out_channel -> unit) -> unit
(** [with_out path f] opens [path] for writing (["-"] means stdout,
    not closed), runs [f], and always closes/flushes. *)
