(** Execution traces.

    When [Config.record_trace] is set, the engine records one event per
    observable action. Traces power the reproduction of the paper's Fig. 1
    (the adversary's stage strategy rendered as a per-processor timeline)
    and make failed property tests diagnosable. *)

type event =
  | Step of { time : int; pid : int }
      (** [pid] completed a local step at [time]. *)
  | Delayed of { time : int; pid : int }
      (** the adversary withheld [pid]'s step at [time]. *)
  | Perform of { time : int; pid : int; task : int; fresh : bool }
      (** [pid] performed [task]; [fresh] iff this was the first execution
          of the task anywhere in the system. *)
  | Broadcast of { time : int; src : int; copies : int }
      (** [src] multicast to [copies] destinations. *)
  | Halt of { time : int; pid : int }
  | Crash of { time : int; pid : int }
  | Restart of { time : int; pid : int }
      (** [pid] restarted after a crash with reset local state — only
          under a beyond-the-model recovering adversary
          ([Adversary.restart]; see docs/FAULTS.md). *)
  | Note of { time : int; text : string }
      (** free-form annotations (adversaries mark stage boundaries etc.). *)

type t

val create : unit -> t
val add : t -> event -> unit
val length : t -> int

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Folds over the events in recording order, in place — the traversal
    primitive {!iter} and {!pp_timeline} are built on. O(1)
    space beyond the accumulator (no copy of the event log). *)

val iter : t -> (event -> unit) -> unit

val pp_timeline : Format.formatter -> t * int * int -> unit
(** [pp_timeline ppf (tr, p, until)] prints one row per processor over
    times [0..until-1], as ["p<pid, 3 wide> |<row>|"]:
    ['#'] a step that performed a task, ['o'] a step without a task,
    ['.'] a step withheld by the adversary, ['X'] crashed, ['R']
    restarted, ['H'] halted, ['x']/['h'] after a crash/halt, [' ']
    before/after activity. This is the rendering used to reproduce
    Fig. 1 of the paper. *)
