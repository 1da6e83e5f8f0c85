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
  noise : noise_summary Lazy.t;
}

exception Missing_input of string

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
    node_costs : node_cost list Lazy.t;
    (* The sessions' "empty register" sentinels, compared with [==]. *)
    no_ct : Ckks.Ciphertext.t;
    no_pt : Ckks.Plaintext.t;
    (* Const node id -> its plaintext ([no_pt] until first encoded),
       filled from the resolver [consts_of]. *)
    mutable consts_of : (string -> float array) option;
    mutable const_pts : Ckks.Plaintext.t array;
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
    (* The graph's one topological sort: the scale check (for which it
       also proves the graph acyclic) and the schedule walk it, and so
       can a caller's noise analysis ([order]).  A cyclic graph has
       none, and [Scale_check.run]'s well-formedness pass reports the
       cycle. *)
    let order =
      match Dfg.topo_order g with
      | o -> Some (Array.of_list o)
      | exception Dfg.Cycle _ -> None
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
    (* A run's final path executes every scheduled node once, rollbacks
       included (a rollback re-executes what it undid), so its
       attribution is the schedule's, built on first ask. *)
    let node_costs =
      lazy
        (List.filter_map
           (fun id ->
             match (Dfg.node g id).Dfg.kind with
             | Op.Input _ | Op.Const _ -> None
             | kind -> Some { node = id; op = Op.name kind; region = region.(id); cost_ms = cost.(id) })
           (Array.to_list order))
    in
    {
      prm;
      g;
      info;
      sched;
      region;
      cost;
      prefix;
      boundary;
      peak_bytes;
      node_costs;
      no_ct = Ckks.Ciphertext.make ~slots:[||] ~scale_bits:1 ~level:0 ~size:2 ~err:0.0;
      no_pt = Ckks.Plaintext.encode ~scale_bits:1 [||];
      consts_of = None;
      const_pts = [||];
    }

  let params p = p.prm
  let graph p = p.g
  let info p = p.info
  let schedule p = p.sched
  let order p = p.sched.Liveness.order
  let prefix_ms p i = p.prefix.(i)
  let boundary p i = p.boundary.(i)
  let peak_bytes p = p.peak_bytes
end

(* The constant table, the register file and the session record live at
   the unit's top level rather than inside [Program] and [Session]: a
   structure's fields form a block allocated at start-up, and these
   definitions need none. *)

(* Const node [id]'s plaintext, encoded ([Evaluator.encode] at the
   scale checker's scale) on first use and shared by every later
   session that resolves constants through the same [consts] closure.
   Another resolver starts the table afresh. *)
let constant (p : Program.t) consts id name =
  (match p.Program.consts_of with
  | Some f when f == consts -> ()
  | _ ->
      p.Program.consts_of <- Some consts;
      p.Program.const_pts <- Array.make (Dfg.node_count p.Program.g) p.Program.no_pt);
  let pt = p.Program.const_pts.(id) in
  if pt != p.Program.no_pt then pt
  else begin
    let pt =
      Ckks.Plaintext.encode ~scale_bits:p.Program.info.(id).Scale_check.scale_bits (consts name)
    in
    p.Program.const_pts.(id) <- pt;
    pt
  end

(* A register file: [v.(id)] is node [id]'s live value, or [empty].
   While the session has a snapshot, each write first appends the
   register and the value it held to an undo journal; a rollback
   replays the journal backwards, and a new snapshot empties it, so
   only the newest snapshot can be restored. *)
type 'a regs = {
  v : 'a array;
  empty : 'a;
  mutable j_ids : int array;
  mutable j_old : 'a array;
  mutable j_len : int;
}

let regs n empty = { v = Array.make n empty; empty; j_ids = [||]; j_old = [||]; j_len = 0 }

(* [a] in an array twice as long (at least 64), padded with [fill]. *)
let grow a fill =
  let b = Array.make (max 64 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let journal r id =
  if r.j_len = Array.length r.j_ids then begin
    r.j_ids <- grow r.j_ids 0;
    r.j_old <- grow r.j_old r.empty
  end;
  r.j_ids.(r.j_len) <- id;
  r.j_old.(r.j_len) <- r.v.(id);
  r.j_len <- r.j_len + 1

(* Empty the journal, dropping its hold on the values it saved. *)
let forget r =
  Array.fill r.j_old 0 r.j_len r.empty;
  r.j_len <- 0

let undo r =
  for k = r.j_len - 1 downto 0 do
    r.v.(r.j_ids.(k)) <- r.j_old.(k)
  done;
  forget r

(* The simulated latency, in an all-float record so adding to it boxes
   nothing. *)
type clock = { mutable latency : float }

type session = {
  ev : Ckks.Evaluator.t;
  prog : Program.t;
  trace : Obs.Trace.t option;
  cts : Ckks.Ciphertext.t regs;  (* live ciphertexts *)
  pts : Ckks.Plaintext.t regs;  (* live plaintexts *)
  clock : clock;
  (* [level + 1] summed over [cts]: {!Liveness.ciphertext_bytes} is
     linear in it, so the live bytes are those of one ciphertext at
     level [live_levels - 1] — exactly the sum of the live sizes, which
     are integers. *)
  mutable live_levels : int;
  err : float array;  (* per node: noise bound of its latest ciphertext *)
  stamp : int array;  (* per node: write stamp of its latest ciphertext *)
  mutable wlog : int array;  (* [wlog.(w - 1)]: the node written with stamp [w] *)
  mutable writes : int;  (* the last write stamp handed out *)
  mutable pos : int;  (* position in [order] of the next node to execute *)
  mutable ops : int;
  mutable snaps : int;  (* snapshots taken; the journal runs once there is one *)
}

let set_pt s id p =
  if s.snaps > 0 then journal s.pts id;
  s.pts.v.(id) <- p

let set_ct s id (c : Ckks.Ciphertext.t) =
  let r = s.cts in
  let old = r.v.(id) in
  if s.snaps > 0 then journal r id;
  if old != r.empty then s.live_levels <- s.live_levels - (old.Ckks.Ciphertext.level + 1);
  if c != r.empty then s.live_levels <- s.live_levels + c.Ckks.Ciphertext.level + 1;
  r.v.(id) <- c

module Session = struct
  type t = session

  type snapshot = {
    owner : session;
    gen : int;  (* [owner.snaps] when taken: the newest while they agree *)
    snap_at : int;
    s_levels : int;
    s_latency : float;
    s_ops : int;
  }

  let create ?trace prog ev =
    let prm = Ckks.Evaluator.params ev in
    if prm != prog.Program.prm && prm <> prog.Program.prm then
      invalid_arg "Interp.Session.create: evaluator parameters differ from the program's";
    let n = Dfg.node_count prog.Program.g in
    {
      ev;
      prog;
      trace;
      cts = regs n prog.Program.no_ct;
      pts = regs n prog.Program.no_pt;
      clock = { latency = 0.0 };
      live_levels = 0;
      err = Array.make n 0.0;
      stamp = Array.make n 0;
      wlog = Array.make n 0;
      writes = 0;
      pos = 0;
      ops = 0;
      snaps = 0;
    }

  let order s = Program.order s.prog
  let latency_ms s = s.clock.latency

  let ct s id =
    let c = s.cts.v.(id) in
    if c == s.cts.empty then invalid_arg "Interp: expected ciphertext value" else c

  let pt s id =
    let p = s.pts.v.(id) in
    if p == s.pts.empty then invalid_arg "Interp: expected plaintext value" else p

  (* Record a new ciphertext of node [id]: its noise bound and a fresh
     write stamp, logged so [live_cts ~after] finds it. *)
  let write_ct s id (c : Ckks.Ciphertext.t) =
    s.err.(id) <- c.Ckks.Ciphertext.err;
    if s.writes = Array.length s.wlog then s.wlog <- grow s.wlog 0;
    s.wlog.(s.writes) <- id;
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
    (match s.trace with
    | Some tr ->
        Obs.Trace.set_ctx tr
          (Some
             {
               Obs.Trace.node = id;
               region;
               freq = node.Dfg.freq;
               cost_ms = prog.Program.cost.(id);
             })
    | None -> ());
    let args = node.Dfg.args in
    let at = prog.Program.sched.Liveness.order_index.(id) in
    let last_use = prog.Program.sched.Liveness.last_use in
    (* Nothing is stored until the evaluator returns, so a raising op
       leaves the session unchanged.  A result is kept only while a
       later node (or the output list) needs it — outputs' last use is
       [max_int]. *)
    (match node.Dfg.kind with
    | Op.Const { name } ->
        let p = constant prog env.consts id name in
        if last_use.(id) > at then set_pt s id p
    | kind ->
        let c =
          match kind with
          | Op.Input { name; level; scale_bits } ->
              let data =
                match List.assoc name env.inputs with
                | d -> d
                | exception Not_found -> raise (Missing_input name)
              in
              Ckks.Evaluator.encrypt s.ev ?level ?scale_bits data
          | Op.Add_cc -> Ckks.Evaluator.add_cc s.ev (ct s args.(0)) (ct s args.(1))
          | Op.Add_cp -> Ckks.Evaluator.add_cp s.ev (ct s args.(0)) (pt s args.(1))
          | Op.Mul_cc -> Ckks.Evaluator.mul_cc s.ev (ct s args.(0)) (ct s args.(1))
          | Op.Mul_cp -> Ckks.Evaluator.mul_cp s.ev (ct s args.(0)) (pt s args.(1))
          | Op.Rotate k -> Ckks.Evaluator.rotate s.ev (ct s args.(0)) k
          | Op.Relin -> Ckks.Evaluator.relin s.ev (ct s args.(0))
          | Op.Rescale -> Ckks.Evaluator.rescale s.ev (ct s args.(0))
          | Op.Modswitch -> Ckks.Evaluator.modswitch s.ev (ct s args.(0))
          | Op.Bootstrap target_level ->
              Ckks.Evaluator.bootstrap s.ev (ct s args.(0)) ~target_level
          | Op.Const _ -> assert false
        in
        write_ct s id c;
        if last_use.(id) > at then set_ct s id c);
    (match node.Dfg.kind with
    | Op.Input _ | Op.Const _ -> ()
    | _ ->
        s.clock.latency <- s.clock.latency +. prog.Program.cost.(id);
        s.ops <- s.ops + node.Dfg.freq);
    (* Free every operand whose last use this was: the session then holds
       exactly the values live at [pos]. *)
    for k = 0 to Array.length args - 1 do
      let a = args.(k) in
      if last_use.(a) = at then begin
        if s.cts.v.(a) != s.cts.empty then set_ct s a s.cts.empty;
        if s.pts.v.(a) != s.pts.empty then set_pt s a s.pts.empty
      end
    done;
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
      s.clock.latency <-
        s.clock.latency
        +. Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:c.Ckks.Ciphertext.level;
      s.ops <- s.ops + 1;
      set_ct s id c';
      write_ct s id c';
      c'
    in
    match s.trace with Some tr -> Obs.with_trace tr go | None -> go ()

  (* The log entries past [after] whose write is still their node's
     latest, and whose node is live, newest write first. *)
  let iter_live_cts ~after s f =
    for w = s.writes downto max after 0 + 1 do
      let id = s.wlog.(w - 1) in
      let c = s.cts.v.(id) in
      if s.stamp.(id) = w && c != s.cts.empty then f id c
    done

  let live_cts ?(after = 0) s =
    let ids = ref [] in
    iter_live_cts ~after s (fun id _ -> ids := id :: !ids);
    List.map (fun id -> (id, s.cts.v.(id))) (List.sort Int.compare !ids)

  let writes s = s.writes

  let snapshot s =
    s.snaps <- s.snaps + 1;
    forget s.cts;
    forget s.pts;
    {
      owner = s;
      gen = s.snaps;
      snap_at = s.pos;
      s_levels = s.live_levels;
      s_latency = s.clock.latency;
      s_ops = s.ops;
    }

  let snapshot_at snap = snap.snap_at
  let[@inline] snapshot_bytes snap =
    Liveness.ciphertext_bytes snap.owner.prog.Program.prm ~level:(snap.s_levels - 1)

  let rollback s snap =
    if snap.owner != s || snap.gen <> s.snaps then
      invalid_arg "Interp.Session.rollback: not the session's newest snapshot";
    undo s.cts;
    undo s.pts;
    s.live_levels <- snap.s_levels;
    s.clock.latency <- snap.s_latency;
    s.pos <- snap.snap_at;
    s.ops <- snap.s_ops;
    snap.snap_at

  let charge_ms s ms =
    s.clock.latency <- s.clock.latency +. ms;
    (match s.trace with
    | Some tr -> Obs.Trace.advance_clock tr ms
    | None -> ())

  let clear_ctx s =
    Obs.set_node ~region:(-1) (-1);
    match s.trace with Some tr -> Obs.Trace.set_ctx tr None | None -> ()

  let finish s =
    {
      outputs = List.map (ct s) (Dfg.outputs s.prog.Program.g);
      latency_ms = s.clock.latency;
      op_count = s.ops;
      node_costs = Lazy.force s.prog.Program.node_costs;
      noise =
        (let g = s.prog.Program.g and order = order s and err = s.err in
         lazy (summarise_noise g order err ~top_k:5));
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
