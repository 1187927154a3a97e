(* The interface every Do-All algorithm implements; see algorithm.mli. *)

type 'msg step_result = {
  performed : int option;
  broadcast : 'msg option;
  unicasts : (int * 'msg) list;
  halt : bool;
  waiting : bool;
}

let nothing =
  {
    performed = None;
    broadcast = None;
    unicasts = [];
    halt = false;
    waiting = false;
  }

let result ?performed ?broadcast ?(unicasts = []) ?(halt = false)
    ?(waiting = false) () =
  { performed; broadcast; unicasts; halt; waiting }

module type S = sig
  val name : string

  type state
  type msg

  val init : Config.t -> pid:int -> state
  val copy : state -> state
  val receive : state -> src:int -> msg -> unit
  val merge_homomorphic : (msg array -> msg) option
  val step : state -> msg step_result
  val is_done : state -> bool
  val done_tasks : state -> Bitset.t
end

type packed = (module S)

let name (module A : S) = A.name
