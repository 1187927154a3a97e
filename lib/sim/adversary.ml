(* See adversary.mli. *)

type oracle = {
  time : unit -> int;
  p : int;
  t : int;
  d : int;
  undone_count : unit -> int;
  undone : unit -> int list;
  task_done : int -> bool;
  would_perform : int -> int option;
  plan : pid:int -> horizon:int -> int list;
  alive : int -> bool;
  halted : int -> bool;
  note : string -> unit;
  rng : Rng.t;
}

type fault_action = Deliver | Drop | Duplicate of int | Reorder of int
type faults = oracle -> src:int -> dst:int -> fault_action

type latency = Variable | Fixed of int | Maximal

type channel_policy = {
  chan_name : string;
  order : (oracle -> int array -> int array option) option;
  hold : (oracle -> src:int -> int) option;
}

type t = {
  name : string;
  schedule : oracle -> bool array;
  delay : oracle -> src:int -> dst:int -> int;
  latency : latency;
  crash : oracle -> int list;
  faults : faults option;
  restart : (oracle -> int list) option;
  channel : channel_policy option;
}

let no_crash (_ : oracle) = []
let all_active o = Array.make o.p true

let make ~name ~schedule ~delay ~crash =
  { name; schedule; delay; latency = Variable; crash; faults = None;
    restart = None; channel = None }

let with_faults f adv = { adv with faults = Some f }
let with_restart r adv = { adv with restart = Some r }
let with_latency l adv = { adv with latency = l }
let with_channel c adv = { adv with channel = Some c }

let fair =
  with_latency (Fixed 1)
    (make ~name:"fair" ~schedule:all_active
       ~delay:(fun _ ~src:_ ~dst:_ -> 1)
       ~crash:no_crash)

let uniform_delay =
  make ~name:"uniform-delay" ~schedule:all_active
    ~delay:(fun o ~src:_ ~dst:_ -> 1 + Rng.int o.rng (Int.max 1 o.d))
    ~crash:no_crash
