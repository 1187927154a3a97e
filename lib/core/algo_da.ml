open Doall_sim
open Doall_perms

(* Memo of the searched low-contention list per q. [make] runs from
   Runner.run_grid worker domains, so the table is mutex-guarded; the
   search is a deterministic function of q (fixed seed), so whichever
   domain populates an entry first, every reader sees the same list. *)
let psi_cache : (int, Perm.t list) Hashtbl.t = Hashtbl.create 8
let psi_cache_mutex = Mutex.create ()

let default_psi ~q =
  Mutex.protect psi_cache_mutex (fun () ->
      match Hashtbl.find_opt psi_cache q with
      | Some psi -> psi
      | None ->
        let rng = Rng.create (0xDA5EED + q) in
        let cert = Search.certified ~rng q in
        Hashtbl.replace psi_cache q cert.Search.list;
        cert.Search.list)

(* One marked tree per domain, keyed on [(q, jobs)]: every pid of a run
   (and every restart) starts from a copy of it, and a grid cell on
   another domain builds its own, so no lock is needed. Copies share its
   chunks copy-on-write, so no pid ever writes the base. *)
let marks_cache : ((int * int) * Bitset.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let initial_tree (sh : Progress_tree.t) =
  let key = (sh.Progress_tree.q, sh.Progress_tree.jobs) in
  match Domain.DLS.get marks_cache with
  | Some (k, base) when k = key -> Bitset.copy base
  | Some _ | None ->
    let base = Progress_tree.initial_marks sh in
    Domain.DLS.set marks_cache (Some (key, base));
    Bitset.copy base

(* Both replica components travel as copy-on-write snapshots of the
   sender's sets at send time. *)
type msg = { m_tree : Bitset.snapshot; m_tasks : Bitset.snapshot }

type frame = {
  node : int;
  depth : int;
  order : int array;
  mutable idx : int;
}

type state = {
  part : Task.partition;
  sh : Progress_tree.t;
  tree : Bitset.t;
  know : Bitset.t;
  digits : int array;
  mutable stack : frame list;
  mutable current : int option; (* leaf node whose job is in progress *)
  mutable halted : bool;
}

let tree st = st.tree

let make_open ?(q = 4) ?psi () :
    (module Algorithm.S with type state = state) =
  let psi =
    match psi with
    | Some psi ->
      if List.length psi <> q then
        invalid_arg "Algo_da.make: psi must contain exactly q permutations";
      List.iter
        (fun pi ->
          if Perm.size pi <> q then
            invalid_arg "Algo_da.make: psi permutations must have size q")
        psi;
      psi
    | None ->
      if q < 2 || q > 8 then
        invalid_arg "Algo_da.make: default psi available for 2 <= q <= 8";
      default_psi ~q
  in
  let psi_arr = Array.of_list (List.map Perm.to_array psi) in
  (module struct
    let name = Printf.sprintf "da-q%d" q

    type nonrec msg = msg

    type nonrec state = state

    let init (cfg : Config.t) ~pid =
      let part = Task.make ~p:cfg.p ~t:cfg.t in
      let sh = Progress_tree.shape ~q ~jobs:part.Task.n in
      let tree = initial_tree sh in
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
        part;
        sh;
        tree;
        know = Bitset.create cfg.t;
        digits;
        stack;
        current;
        halted = false;
      }

    let copy st =
      {
        st with
        tree = Bitset.copy st.tree;
        know = Bitset.copy st.know;
        stack =
          List.map
            (fun fr ->
              { node = fr.node; depth = fr.depth; order = fr.order; idx = fr.idx })
            st.stack;
      }

    let receive st ~src:_ msg =
      Bitset.union_into ~dst:st.tree msg.m_tree;
      Bitset.union_into ~dst:st.know msg.m_tasks

    (* Both components of [receive] are src-independent monotone unions
       into disjoint sets, so folding an epoch componentwise delivers
       exactly what the per-record walk would (algorithm.mli). *)
    let merge_homomorphic =
      Some
        (fun msgs ->
          {
            m_tree =
              Bitset.union_snapshots (Array.map (fun m -> m.m_tree) msgs);
            m_tasks =
              Bitset.union_snapshots (Array.map (fun m -> m.m_tasks) msgs);
          })

    let is_done st = Bitset.is_full st.know
    let done_tasks st = st.know

    let snapshot st =
      Some
        { m_tree = Bitset.snapshot st.tree; m_tasks = Bitset.snapshot st.know }

    let perform_at_leaf st leaf =
      (* One member task of the leaf's job; mark and multicast when the
         whole job is known done. *)
      let j = Progress_tree.job_of_leaf st.sh leaf in
      match Task.next_member st.part st.know j with
      | Some z ->
        Bitset.set st.know z;
        if Task.job_done st.part st.know j then begin
          Bitset.set st.tree leaf;
          st.current <- None;
          Algorithm.result ~performed:z ?broadcast:(snapshot st) ()
        end
        else begin
          st.current <- Some leaf;
          Algorithm.result ~performed:z ()
        end
      | None ->
        (* The job completed elsewhere while we were heading to it. *)
        Bitset.set st.tree leaf;
        st.current <- None;
        Algorithm.result ?broadcast:(snapshot st) ()

    let step st =
      if st.halted then Algorithm.nothing
      else if is_done st && st.current = None then begin
        st.halted <- true;
        Algorithm.result ~halt:true ()
      end
      else
        match st.current with
        | Some leaf -> perform_at_leaf st leaf
        | None -> (
          match st.stack with
          | [] ->
            (* Traversal finished: the root is marked, so all jobs are
               done and [is_done] fires above on the next step. *)
            Algorithm.nothing
          | fr :: rest ->
            if Bitset.mem st.tree fr.node then begin
              (* Subtree known done (learned from a message): prune. *)
              st.stack <- rest;
              Algorithm.nothing
            end
            else if fr.idx >= st.sh.Progress_tree.q then begin
              (* Post-order completion: mark the node and share the news
                 (lines 50-52 of Fig. 3). *)
              Bitset.set st.tree fr.node;
              st.stack <- rest;
              Algorithm.result ?broadcast:(snapshot st) ()
            end
            else begin
              let branch = fr.order.(fr.idx) in
              fr.idx <- fr.idx + 1;
              let c = Progress_tree.child st.sh fr.node branch in
              if Bitset.mem st.tree c then Algorithm.nothing
              else if Progress_tree.is_leaf st.sh c then perform_at_leaf st c
              else begin
                st.stack <-
                  {
                    node = c;
                    depth = fr.depth + 1;
                    order = psi_arr.(st.digits.(fr.depth + 1));
                    idx = 0;
                  }
                  :: st.stack;
                Algorithm.nothing
              end
            end)
  end)

let make ?q ?psi () : Algorithm.packed =
  let module A = (val make_open ?q ?psi ()) in
  (module A)
