open Doall_sim
open Doall_perms
open Doall_core

type phase = Query | Store

type msg =
  | Req of { op : int; node : int; phase : phase; ts : int; value : bool }
  | Resp of { op : int; phase : phase; ts : int; value : bool }

type cont =
  | After_child_read of { child : int; depth : int }
  | After_leaf_write
  | After_node_write

type pending = {
  op : int;
  write : bool;
  node : int;
  cont : cont;
  mutable phase : phase;
  mutable responders : Bitset.t;
  mutable best_ts : int;
  mutable value : bool;
  mutable phase_complete : bool;
  mutable complete : bool;
}

type frame = { node : int; depth : int; order : int array; mutable idx : int }

let make ?(q = 4) ?psi ?(protocol = `Monotone) () : Algorithm.packed =
  let psi =
    match psi with
    | Some psi ->
      if List.length psi <> q then
        invalid_arg "Algo_awq.make: psi must contain exactly q permutations";
      List.iter
        (fun pi ->
          if Perm.size pi <> q then
            invalid_arg "Algo_awq.make: psi permutations must have size q")
        psi;
      psi
    | None -> Algo_da.default_psi ~q
  in
  let psi_arr = Array.of_list (List.map Perm.to_array psi) in
  (module struct
    let name =
      Printf.sprintf "awq%s-q%d"
        (match protocol with `Monotone -> "" | `Abd -> "-abd")
        q

    type nonrec msg = msg

    type state = {
      p : int;
      pid : int;
      part : Task.partition;
      sh : Progress_tree.t;
      qs : Quorum.t;
      replica : Bitset.t; (* server role: authoritative tree bits *)
      replica_ts : int array; (* server role: per-node timestamps (ABD) *)
      cache : Bitset.t; (* client role: node bits ever seen at 1 *)
      know : Bitset.t; (* tasks known done *)
      digits : int array;
      mutable stack : frame list;
      mutable current : int option; (* leaf whose job is being performed *)
      mutable pending : pending option;
      mutable outbox : (int * msg) list; (* server replies, flushed per step *)
      mutable opseq : int;
      mutable halted : bool;
    }

    let init (cfg : Config.t) ~pid =
      let part = Task.make ~p:cfg.p ~t:cfg.t in
      let sh = Progress_tree.shape ~q ~jobs:part.Task.n in
      let qs = Quorum.majority ~p:cfg.p in
      let digits = Qary.digits ~q ~width:sh.Progress_tree.h pid in
      let stack, current =
        if Progress_tree.is_leaf sh Progress_tree.root then
          ([], Some Progress_tree.root)
        else
          ( [
              {
                node = Progress_tree.root;
                depth = 0;
                order = psi_arr.(digits.(0));
                idx = 0;
              };
            ],
            None )
      in
      {
        p = cfg.p;
        pid;
        part;
        sh;
        qs;
        replica = Progress_tree.initial_marks sh;
        replica_ts = Array.make sh.Progress_tree.size 0;
        cache = Progress_tree.initial_marks sh;
        know = Bitset.create cfg.t;
        digits;
        stack;
        current;
        pending = None;
        outbox = [];
        opseq = 0;
        halted = false;
      }

    let copy st =
      {
        st with
        replica = Bitset.copy st.replica;
        replica_ts = Array.copy st.replica_ts;
        cache = Bitset.copy st.cache;
        know = Bitset.copy st.know;
        stack =
          List.map
            (fun fr ->
              {
                node = fr.node;
                depth = fr.depth;
                order = fr.order;
                idx = fr.idx;
              })
            st.stack;
        pending =
          Option.map
            (fun pnd -> { pnd with responders = Bitset.copy pnd.responders })
            st.pending;
      }

    let is_done st = Bitset.is_full st.know
    let done_tasks st = st.know

    (* Request/response protocol: [receive] generates directed replies
       keyed by [src] and per-operation timestamps — not a union. *)
    let merge_homomorphic = None

    (* A node bit at 1 proves every task in its subtree performed (the
       writer completed the subtree before writing); fold that proof into
       local knowledge. *)
    let learn_node_done st node =
      if not (Bitset.mem st.cache node) then begin
        Bitset.set st.cache node;
        List.iter
          (fun job ->
            List.iter (Bitset.set st.know) (Task.tasks_of_job st.part job))
          (Progress_tree.subtree_jobs st.sh node)
      end

    let known_done st node =
      Bitset.mem st.cache node || Bitset.mem st.replica node

    (* Server role: apply a Store to the replica. Only [true] is ever
       stored (initial state is the only false), so the value lattice
       stays monotone even under ABD's timestamp rule. *)
    let server_store st ~node ~ts ~value =
      if ts > st.replica_ts.(node) then st.replica_ts.(node) <- ts;
      if value then begin
        Bitset.set st.replica node;
        learn_node_done st node
      end

    let receive st ~src msg =
      match msg with
      | Req { op; node; phase; ts; value } ->
        (match phase with
         | Query -> ()
         | Store -> server_store st ~node ~ts ~value);
        let reply =
          match phase with
          | Query ->
            Resp
              {
                op;
                phase = Query;
                ts = st.replica_ts.(node);
                value = known_done st node;
              }
          | Store -> Resp { op; phase = Store; ts; value }
        in
        st.outbox <- (src, reply) :: st.outbox
      | Resp { op; phase; ts; value } -> (
        match st.pending with
        | Some pnd
          when pnd.op = op && pnd.phase = phase
               && (not pnd.phase_complete)
               && not (Bitset.mem pnd.responders src) ->
          Bitset.set pnd.responders src;
          if ts > pnd.best_ts then pnd.best_ts <- ts;
          if value then pnd.value <- true;
          let quorum_in = Quorum.satisfied st.qs pnd.responders in
          (match (protocol, pnd.phase) with
           | `Monotone, _ ->
             (* single-phase protocol: a read completes early on one
                value-1 witness, otherwise on a quorum; a write on a
                quorum of acks *)
             if (not pnd.write) && pnd.value then begin
               pnd.phase_complete <- true;
               pnd.complete <- true
             end
             else if quorum_in then begin
               pnd.phase_complete <- true;
               pnd.complete <- true
             end
           | `Abd, Query ->
             if quorum_in then pnd.phase_complete <- true
           | `Abd, Store ->
             if quorum_in then begin
               pnd.phase_complete <- true;
               pnd.complete <- true
             end)
        | Some _ | None -> ())

    (* Client role: begin a phase. The issuer's own replica is the first
       responder. Returns the request to broadcast. *)
    let fresh_responders st =
      let responders = Bitset.create st.p in
      Bitset.set responders st.pid;
      responders

    let begin_phase st pnd ~phase ~ts ~value =
      pnd.phase <- phase;
      pnd.responders <- fresh_responders st;
      pnd.phase_complete <- false;
      (match phase with
       | Query ->
         let own_ts = st.replica_ts.(pnd.node) in
         if own_ts > pnd.best_ts then pnd.best_ts <- own_ts;
         if known_done st pnd.node then pnd.value <- true
       | Store -> server_store st ~node:pnd.node ~ts ~value);
      let quorum_in = Quorum.satisfied st.qs pnd.responders in
      (match (protocol, phase) with
       | `Monotone, _ ->
         if ((not pnd.write) && pnd.value) || quorum_in then begin
           pnd.phase_complete <- true;
           pnd.complete <- true
         end
       | `Abd, Query -> if quorum_in then pnd.phase_complete <- true
       | `Abd, Store ->
         if quorum_in then begin
           pnd.phase_complete <- true;
           pnd.complete <- true
         end);
      Req { op = pnd.op; node = pnd.node; phase; ts; value }

    (* Timestamps are (counter, pid) pairs encoded as counter * p + pid
       so concurrent writers never tie. *)
    let next_ts st best = (((best / st.p) + 1) * st.p) + st.pid

    let issue st ~write ~node ~cont =
      st.opseq <- st.opseq + 1;
      let pnd =
        {
          op = st.opseq;
          write;
          node;
          cont;
          phase = Query;
          responders = fresh_responders st;
          best_ts = 0;
          value = false;
          phase_complete = false;
          complete = false;
        }
      in
      st.pending <- Some pnd;
      match protocol with
      | `Monotone ->
        if write then begin_phase st pnd ~phase:Store ~ts:0 ~value:true
        else begin_phase st pnd ~phase:Query ~ts:0 ~value:false
      | `Abd ->
        (* both reads and writes start with a timestamp-discovery query *)
        begin_phase st pnd ~phase:Query ~ts:0 ~value:false

    (* Advance a completed Query phase into the ABD Store phase:
       writers propagate (best+1, true); readers write back what they
       read, guaranteeing atomicity for later readers. *)
    let start_store_phase st pnd =
      let ts, value =
        if pnd.write then (next_ts st pnd.best_ts, true)
        else (pnd.best_ts, pnd.value)
      in
      begin_phase st pnd ~phase:Store ~ts ~value

    let result st ?performed ?broadcast ?halt ?waiting () =
      let unicasts = st.outbox in
      st.outbox <- [];
      Algorithm.result ?performed ?broadcast ~unicasts ?halt ?waiting ()

    let start_or_finish_leaf st leaf =
      (* Perform one member of the leaf's job, or write the leaf if the
         job turns out fully known. *)
      let job = Progress_tree.job_of_leaf st.sh leaf in
      match Task.next_member st.part st.know job with
      | Some z ->
        Bitset.set st.know z;
        if Task.job_done st.part st.know job then begin
          st.current <- None;
          let req = issue st ~write:true ~node:leaf ~cont:After_leaf_write in
          result st ~performed:z ~broadcast:req ()
        end
        else begin
          st.current <- Some leaf;
          result st ~performed:z ()
        end
      | None ->
        st.current <- None;
        let req = issue st ~write:true ~node:leaf ~cont:After_leaf_write in
        result st ~broadcast:req ()

    let continue_after st pnd =
      match pnd.cont with
      | After_child_read { child; depth } ->
        if pnd.value then begin
          learn_node_done st child;
          result st ()
        end
        else if Progress_tree.is_leaf st.sh child then
          start_or_finish_leaf st child
        else begin
          st.stack <-
            {
              node = child;
              depth;
              order = psi_arr.(st.digits.(depth));
              idx = 0;
            }
            :: st.stack;
          result st ()
        end
      | After_leaf_write | After_node_write ->
        learn_node_done st pnd.node;
        result st ()

    let step st =
      if st.halted then Algorithm.nothing
      else if is_done st && st.current = None then begin
        st.halted <- true;
        result st ~halt:true ()
      end
      else
        match st.pending with
        | Some pnd ->
          if pnd.complete then begin
            st.pending <- None;
            continue_after st pnd
          end
          else if pnd.phase_complete && pnd.phase = Query then
            (* ABD phase transition costs (at least) one step and one
               broadcast, as a real round trip would *)
            let req = start_store_phase st pnd in
            result st ~broadcast:req ()
          else
            (* waiting on the quorum: an idle, charged step. Only a
               response can complete the phase, and [receive] is the
               only writer of the outbox, so until a message arrives
               every step lands here again with nothing to send. *)
            result st ~waiting:true ()
        | None -> (
          match st.current with
          | Some leaf -> start_or_finish_leaf st leaf
          | None -> (
            match st.stack with
            | [] -> result st ()
            | fr :: rest ->
              if known_done st fr.node then begin
                st.stack <- rest;
                result st ()
              end
              else if fr.idx >= st.sh.Progress_tree.q then begin
                st.stack <- rest;
                let req =
                  issue st ~write:true ~node:fr.node ~cont:After_node_write
                in
                result st ~broadcast:req ()
              end
              else begin
                let branch = fr.order.(fr.idx) in
                fr.idx <- fr.idx + 1;
                let child = Progress_tree.child st.sh fr.node branch in
                if known_done st child then result st ()
                else
                  let req =
                    issue st ~write:false ~node:child
                      ~cont:
                        (After_child_read { child; depth = fr.depth + 1 })
                  in
                  result st ~broadcast:req ()
              end))
  end)
