type env = { inputs : (string * float array) list; consts : string -> float array }

type node_cost = { node : int; op : string; region : int; cost_ms : float }

type noise_summary = {
  min_headroom_bits : float;
  min_headroom_node : int;
  bootstrap_headroom : (int * float) list;
  noisiest : (int * float) list;
}

type result = {
  outputs : Ckks.Ciphertext.t list;
  latency_ms : float;
  op_count : int;
  node_costs : node_cost list;
  noise : noise_summary;
}

exception Missing_input of string

type value = Ct of Ckks.Ciphertext.t | Pt of Ckks.Plaintext.t

module Ints = Map.Make (Int)

let headroom = Obs.Trace.headroom_bits

(* Noise-budget summary over every executed ciphertext, in execution
   order: min headroom across the run, headroom of each bootstrap's
   operand (the budget left at the moment the manager spends a refresh —
   how close the plan cut it), and the [top_k] nodes with the least
   headroom.  [err.(id)] is the noise bound of the last ciphertext node
   [id] produced; the session frees values at their last use, so the
   summary cannot read them back.  The top [k] are selected in the one
   pass: [top] holds them ascending, and a node goes in before the equal
   headrooms already held — among ties the later-executed node first,
   the order a stable sort of the reverse-execution list gives. *)
let summarise_noise g order err ~top_k =
  let is_ct id = Op.produces_ct (Dfg.node g id).Dfg.kind in
  let min_bits = ref Float.infinity and min_node = ref (-1) in
  let bts = ref [] in
  let top = Array.make top_k (-1, 0.0) and held = ref 0 in
  Array.iter
    (fun id ->
      if is_ct id then begin
        let bits = headroom err.(id) in
        if bits < !min_bits then begin
          min_bits := bits;
          min_node := id
        end;
        let j = ref !held in
        while !j > 0 && Float.compare bits (snd top.(!j - 1)) <= 0 do
          decr j
        done;
        if !j < top_k then begin
          Array.blit top !j top (!j + 1) (min !held (top_k - 1) - !j);
          top.(!j) <- (id, bits);
          held := min (!held + 1) top_k
        end;
        let node = Dfg.node g id in
        match (node.Dfg.kind, node.Dfg.args) with
        | Op.Bootstrap _, [| a |] when is_ct a -> bts := (id, headroom err.(a)) :: !bts
        | _ -> ()
      end)
    order;
  {
    min_headroom_bits = (if !min_node < 0 then Float.infinity else !min_bits);
    min_headroom_node = !min_node;
    bootstrap_headroom = List.rev !bts;
    noisiest = Array.to_list (Array.sub top 0 !held);
  }

module Program = struct
  type t = {
    prm : Ckks.Params.t;
    g : Dfg.t;
    info : Scale_check.info array;
    sched : Liveness.schedule;
    region : int array;  (* node id -> region; -1 when unattributed *)
    cost : float array;  (* node id -> freq-weighted Table 2 cost *)
    prefix : float array;  (* position -> cost of [order.(0 .. i-1)] *)
    boundary : bool array;  (* position -> a new region starts there *)
    peak_bytes : float;
  }

  (* The scale checker's verdict, or the structured [Illegal_graph]
     error.  A statically illegal graph is the compile-time face of
     Figure 1a: leave the same final flight-recorder marker a runtime
     failure would, naming the faulting node, through the same
     [raise_error] funnel as every other raise. *)
  let validate ?trace ?order prm g =
    match Scale_check.run ?order prm g with
    | Ok info -> info
    | Error vs ->
        let failing = match vs with v :: _ -> [ v ] | [] -> [] in
        let msg =
          Format.asprintf "Interp.run: graph not legal:@ %a"
            (Format.pp_print_list Scale_check.pp_violation)
            failing
        in
        let node = match failing with v :: _ -> v.Scale_check.node | [] -> -1 in
        let err =
          Ckks.Evaluator.error ~node Ckks.Evaluator.Illegal_graph ~op:"interp" msg
        in
        let do_raise () = Ckks.Evaluator.raise_error err in
        (match trace with Some tr -> Obs.with_trace tr do_raise | None -> do_raise ())

  let make ?trace ?(region_of = fun _ -> -1) prm g =
    Obs.incr "interp.programs";
    (* The graph's one topological sort: the scale check and the
       schedule walk it, and so can a caller's noise analysis ([order]).
       A cyclic graph has none, and [Scale_check.run]'s well-formedness
       pass reports the cycle. *)
    let order =
      match Dfg.topo_order g with
      | o -> Some (Array.of_list o)
      | exception Graphlib.Topo.Cycle _ -> None
    in
    let info = validate ?trace ?order prm g in
    let sched = Liveness.schedule ?order g in
    let order = sched.Liveness.order in
    let n = Array.length order in
    let region = Array.make (Dfg.node_count g) (-1) in
    let cost = Array.make (Dfg.node_count g) 0.0 in
    let prefix = Array.make (n + 1) 0.0 in
    Array.iteri
      (fun i id ->
        region.(id) <- region_of id;
        cost.(id) <- Latency.node_cost prm g info id;
        prefix.(i + 1) <- prefix.(i) +. cost.(id))
      order;
    let boundary =
      Array.init (n + 1) (fun i ->
          i = n || i = 0 || region.(order.(i - 1)) <> region.(order.(i)))
    in
    let peak_bytes = (Liveness.analyse ~info ~sched prm g).Liveness.peak_bytes in
    { prm; g; info; sched; region; cost; prefix; boundary; peak_bytes }

  let params p = p.prm
  let graph p = p.g
  let info p = p.info
  let schedule p = p.sched
  let order p = p.sched.Liveness.order
  let prefix_ms p i = p.prefix.(i)
  let boundary p i = p.boundary.(i)
  let peak_bytes p = p.peak_bytes
end

module Session = struct
  type session = {
    ev : Ckks.Evaluator.t;
    prog : Program.t;
    trace : Obs.Trace.t option;
    mutable cts : Ckks.Ciphertext.t Ints.t;  (* live ciphertexts *)
    mutable pts : Ckks.Plaintext.t Ints.t;  (* live plaintexts *)
    err : float array;  (* per node: noise bound of its latest ciphertext *)
    stamp : int array;  (* per node: write stamp of its latest ciphertext *)
    mutable writes : int;  (* the last write stamp handed out *)
    mutable pos : int;  (* position in [order] of the next node to execute *)
    mutable latency : float;
    mutable ops : int;
    mutable costs : node_cost list;  (* reversed *)
  }

  type t = session

  (* Persistent maps make a checkpoint O(1): it shares the live values
     (and their immutable slot arrays) with the session instead of
     copying them. *)
  type snapshot = {
    snap_at : int;
    s_cts : Ckks.Ciphertext.t Ints.t;
    s_pts : Ckks.Plaintext.t Ints.t;
    snap_bytes : float;
    s_latency : float;
    s_ops : int;
    s_costs : node_cost list;
  }

  let create ?trace prog ev =
    let prm = Ckks.Evaluator.params ev in
    if prm != prog.Program.prm && prm <> prog.Program.prm then
      invalid_arg "Interp.Session.create: evaluator parameters differ from the program's";
    {
      ev;
      prog;
      trace;
      cts = Ints.empty;
      pts = Ints.empty;
      err = Array.make (Dfg.node_count prog.Program.g) 0.0;
      stamp = Array.make (Dfg.node_count prog.Program.g) 0;
      writes = 0;
      pos = 0;
      latency = 0.0;
      ops = 0;
      costs = [];
    }

  let order s = Program.order s.prog
  let latency_ms s = s.latency

  let ct s id =
    match Ints.find_opt id s.cts with
    | Some c -> c
    | None -> invalid_arg "Interp: expected ciphertext value"

  let pt s id =
    match Ints.find_opt id s.pts with
    | Some p -> p
    | None -> invalid_arg "Interp: expected plaintext value"

  let write_ct s id (c : Ckks.Ciphertext.t) =
    s.err.(id) <- c.Ckks.Ciphertext.err;
    s.writes <- s.writes + 1;
    s.stamp.(id) <- s.writes

  let exec_raw s env id =
    let prog = s.prog in
    let node = Dfg.node prog.Program.g id in
    let region = prog.Program.region.(id) in
    (* Attribution for the events the evaluator is about to record: node
       identity, region, loop frequency and the freq-weighted Table 2
       cost of this node.  The executing node and its region are
       published even when no trace is installed, so structured errors,
       fault injections and log records are attributed on untraced runs
       too. *)
    Obs.set_node ~region id;
    let cost = prog.Program.cost.(id) in
    (match s.trace with
    | Some tr ->
        Obs.Trace.set_ctx tr
          (Some
             {
               Obs.Trace.node = id;
               region;
               freq = node.Dfg.freq;
               cost_ms = cost;
             })
    | None -> ());
    let v =
      match node.Dfg.kind with
      | Op.Input { name; level; scale_bits } ->
          let data =
            match List.assoc_opt name env.inputs with
            | Some d -> d
            | None -> raise (Missing_input name)
          in
          Ct (Ckks.Evaluator.encrypt s.ev ?level ?scale_bits data)
      | Op.Const { name } ->
          let scale_bits = prog.Program.info.(id).Scale_check.scale_bits in
          Pt (Ckks.Evaluator.encode s.ev ~scale_bits (env.consts name))
      | Op.Add_cc -> Ct (Ckks.Evaluator.add_cc s.ev (ct s node.Dfg.args.(0)) (ct s node.Dfg.args.(1)))
      | Op.Add_cp -> Ct (Ckks.Evaluator.add_cp s.ev (ct s node.Dfg.args.(0)) (pt s node.Dfg.args.(1)))
      | Op.Mul_cc -> Ct (Ckks.Evaluator.mul_cc s.ev (ct s node.Dfg.args.(0)) (ct s node.Dfg.args.(1)))
      | Op.Mul_cp -> Ct (Ckks.Evaluator.mul_cp s.ev (ct s node.Dfg.args.(0)) (pt s node.Dfg.args.(1)))
      | Op.Rotate k -> Ct (Ckks.Evaluator.rotate s.ev (ct s node.Dfg.args.(0)) k)
      | Op.Relin -> Ct (Ckks.Evaluator.relin s.ev (ct s node.Dfg.args.(0)))
      | Op.Rescale -> Ct (Ckks.Evaluator.rescale s.ev (ct s node.Dfg.args.(0)))
      | Op.Modswitch -> Ct (Ckks.Evaluator.modswitch s.ev (ct s node.Dfg.args.(0)))
      | Op.Bootstrap target_level ->
          Ct (Ckks.Evaluator.bootstrap s.ev (ct s node.Dfg.args.(0)) ~target_level)
    in
    (match node.Dfg.kind with
    | Op.Input _ | Op.Const _ -> ()
    | kind ->
        s.latency <- s.latency +. cost;
        s.ops <- s.ops + node.Dfg.freq;
        s.costs <-
          { node = id; op = Op.name kind; region; cost_ms = cost }
          :: s.costs);
    (* Keep the result only while a later node (or the output list) needs
       it, and free every operand whose last use this was — outputs never
       are, their last use being [max_int].  The session then holds
       exactly the values live at [pos]. *)
    let at = prog.Program.sched.Liveness.order_index.(id) in
    let last_use = prog.Program.sched.Liveness.last_use in
    (match v with
    | Ct c ->
        write_ct s id c;
        if last_use.(id) > at then s.cts <- Ints.add id c s.cts
    | Pt p -> if last_use.(id) > at then s.pts <- Ints.add id p s.pts);
    Array.iter
      (fun a ->
        if last_use.(a) = at then begin
          s.cts <- Ints.remove a s.cts;
          s.pts <- Ints.remove a s.pts
        end)
      node.Dfg.args;
    s.pos <- at + 1

  let exec s env id =
    match s.trace with
    | Some tr -> Obs.with_trace tr (fun () -> exec_raw s env id)
    | None -> exec_raw s env id

  let refresh s id =
    let c = ct s id in
    let go () =
      let region = s.prog.Program.region.(id) in
      Obs.set_node ~region id;
      (match s.trace with
      | Some tr ->
          Obs.Trace.set_ctx tr
            (Some
               {
                 Obs.Trace.node = id;
                 region;
                 freq = 1;
                 cost_ms = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:c.Ckks.Ciphertext.level;
               })
      | None -> ());
      let c' = Ckks.Evaluator.refresh s.ev c in
      s.latency <-
        s.latency +. Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:c.Ckks.Ciphertext.level;
      s.ops <- s.ops + 1;
      s.cts <- Ints.add id c' s.cts;
      write_ct s id c';
      c'
    in
    match s.trace with Some tr -> Obs.with_trace tr go | None -> go ()

  let live_cts ?(after = 0) s =
    List.rev
      (Ints.fold
         (fun id c acc -> if s.stamp.(id) > after then (id, c) :: acc else acc)
         s.cts [])

  let writes s = s.writes

  let snapshot s =
    let prm = s.prog.Program.prm in
    {
      snap_at = s.pos;
      s_cts = s.cts;
      s_pts = s.pts;
      snap_bytes =
        Ints.fold
          (fun _ c acc -> acc +. Liveness.ciphertext_bytes prm ~level:c.Ckks.Ciphertext.level)
          s.cts 0.0;
      s_latency = s.latency;
      s_ops = s.ops;
      s_costs = s.costs;
    }

  let snapshot_at snap = snap.snap_at
  let snapshot_bytes snap = snap.snap_bytes

  let rollback s snap =
    s.cts <- snap.s_cts;
    s.pts <- snap.s_pts;
    s.pos <- snap.snap_at;
    s.latency <- snap.s_latency;
    s.ops <- snap.s_ops;
    s.costs <- snap.s_costs;
    snap.snap_at

  let charge_ms s ms =
    s.latency <- s.latency +. ms;
    (match s.trace with
    | Some tr -> Obs.Trace.advance_clock tr ms
    | None -> ())

  let clear_ctx s =
    Obs.set_node ~region:(-1) (-1);
    match s.trace with Some tr -> Obs.Trace.set_ctx tr None | None -> ()

  let finish s =
    {
      outputs = List.map (ct s) (Dfg.outputs s.prog.Program.g);
      latency_ms = s.latency;
      op_count = s.ops;
      node_costs = List.rev s.costs;
      noise = summarise_noise s.prog.Program.g (order s) s.err ~top_k:5;
    }
end

let run_program ?trace prog ev env =
  let s = Session.create ?trace prog ev in
  Fun.protect
    ~finally:(fun () -> Session.clear_ctx s)
    (fun () ->
      Array.iter (fun id -> Session.exec s env id) (Session.order s);
      Session.finish s)

let run ?trace ?region_of ev g env =
  run_program ?trace (Program.make ?trace ?region_of (Ckks.Evaluator.params ev) g) ev env
