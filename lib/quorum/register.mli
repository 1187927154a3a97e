(** Registry hookup for the quorum-based algorithms.

    Call {!install} once at program start to make ["awq-q2"], ["awq-q4"]
    and ["awq-q8"] available through {!Doall_core.Runner} by name (the
    CLI, benchmark and examples do). Idempotent. *)

val install : unit -> unit
