(** Run configuration visible to the algorithms.

    Deliberately, the message-delay bound [d] is {e not} part of this
    record: the paper's central modelling assumption is that algorithms
    have no knowledge of [d] and may not rely on any bound on it
    (Section 1). [d] is therefore a parameter of the adversarial
    environment, supplied to {!Engine.run} alongside the adversary — the
    type system makes it impossible for an algorithm to peek at it. *)

(** What happens when several processors transmit on a shared channel in
    the same slot (docs/MODEL.md "beyond the model"). [Silent]: the slot
    is wasted and every colliding transmission is lost without the
    transmitters learning of it. [Detectable]: transmitters detect the
    collision and re-contend in later slots under a deterministic
    per-pid backoff, so every transmission is eventually delivered. *)
type collision = Silent | Detectable

(** Which communication medium carries messages. [Ptp]: the paper's
    reliable fully connected point-to-point network with adversarial
    per-message delay ({!Network}). [Channel c]: a single multiple-access
    shared channel with one transmission slot per time unit and collision
    semantics [c] ({!Channel}) — beyond the paper's model, after
    Klonowski–Kowalski–Mirek (PAPERS.md). *)
type transport = Ptp | Channel of collision

type t = private {
  p : int;  (** number of processors, with pids [0..p-1] *)
  t : int;  (** number of tasks, with ids [0..t-1] *)
  seed : int;  (** master seed; all randomness in a run derives from it *)
  record_trace : bool;  (** record per-event traces (costs memory) *)
  transport : transport;  (** communication medium (default [Ptp]) *)
}

val make :
  ?seed:int -> ?record_trace:bool -> ?transport:transport -> p:int -> t:int ->
  unit -> t
(** Validates [p >= 1] and [t >= 1]. [transport] defaults to [Ptp]. *)

val transport_to_string : transport -> string
(** ["ptp"], ["channel"] (silent collisions) or ["channel-detect"] —
    the vocabulary of the CLIs' [--transport] flag and of
    {!Doall_core.Runner.run_spec} names. *)

val transport_of_string : string -> (transport, string) result

val pp : Format.formatter -> t -> unit
