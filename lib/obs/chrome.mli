(** Chrome trace-event export: one {!Doall_sim.Trace.t} rendered as a
    [chrome://tracing] / Perfetto document ([doall trace --chrome]).

    The document is a single JSON object
    [{"traceEvents": […], "displayTimeUnit": "ms"}] where one simulated
    time unit maps to 1000 µs. Tracks:

    - process [1] ("simulation"): one thread per processor ([p0]…),
      named via [M] metadata events. Steps are complete ([X]) slices of
      one time unit — [Perform] (a step that executed a task, labelled
      with the task id) and [Step] (a bookkeeping step); [Delayed] /
      [Halt] / [Crash] / [Restart] / [Note] are thread-scoped instants
      ([i]).
    - broadcast flow arrows: for each [Broadcast] and each destination
      whose next step ([Step] or [Perform]) exists in the trace, a
      flow-start ([s]) at the send and a flow-finish ([f], [bp:"e"]) on
      the destination's first step strictly after it — one fresh id per (broadcast, destination)
      pair, so [s]/[f] events always come in matched pairs (the trace
      records no per-destination delivery event; the receiving step is
      the closest observable anchor).
    - process [2] ("engine profile"), only with [?spans]: the phase
      totals laid end to end as [X] slices — a stacked-bar reading of
      engine wall-time, not a timeline (the profiler keeps totals, not
      intervals). Phases never entered (count 0, e.g. [oracle] without
      [--check]) are omitted rather than drawn zero-width.

    Validity (every line parses, flows pair up) is pinned by
    [test/test_span.ml]. *)

val write :
  out_channel -> ?spans:Span.snapshot -> p:int -> Doall_sim.Trace.t -> unit
(** [json] pretty-printed to the channel
    ({!Export.Json.pp_to_channel}). *)
