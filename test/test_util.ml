(* Shared helpers for the test suite. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  (* deterministic generator state: property failures must reproduce *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5EED; Hashtbl.hash name |])
    (QCheck2.Test.make ~count ~name gen prop)

(* --- Small DFG builders ------------------------------------------------ *)

open Fhe_ir

(* a3*x^3 + a1*x — the Figure 3 polynomial. *)
let fig3_poly () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let x2 = Dfg.mul_cc g x x in
  let x3 = Dfg.mul_cc g x2 x in
  let a3x3 = Dfg.mul_cp g x3 (Dfg.const g "a3") in
  let a1x = Dfg.mul_cp g x (Dfg.const g "a1") in
  let out = Dfg.add_cc g a3x3 a1x in
  Dfg.set_outputs g [ out ];
  g

(* The simplified ResNet block of Figure 1: two 3-tap convolutions around
   a cubic approximate ReLU, combined with the input by a final MulCC. *)
let conv g name v =
  let t0 = Dfg.mul_cp g v (Dfg.const g (name ^ "_w0")) in
  let t1 = Dfg.mul_cp g (Dfg.rotate g v (-1)) (Dfg.const g (name ^ "_w1")) in
  let t2 = Dfg.mul_cp g (Dfg.rotate g v 1) (Dfg.const g (name ^ "_w2")) in
  Dfg.add_cp g (Dfg.add_cc g (Dfg.add_cc g t0 t1) t2) (Dfg.const g (name ^ "_b"))

let fig1_block () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let u = conv g "conv1" x in
  let u2 = Dfg.mul_cc g u u in
  let u3 = Dfg.mul_cc g u2 u in
  let c3u3 = Dfg.mul_cp g u3 (Dfg.const g "c3") in
  let c1u = Dfg.mul_cp g u (Dfg.const g "c1") in
  let relu = Dfg.add_cc g c3u3 c1u in
  let y = conv g "conv2" relu in
  let out = Dfg.mul_cc g y x in
  Dfg.set_outputs g [ out ];
  g

(* The Figure 5 program: y = a3*x^3 and z = a4*((a1*x)^2 + y^4), written
   naively (shared subexpressions not reused) as the paper's example. *)
let fig5_program () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let x2 = Dfg.mul_cc g x x in
  let x3 = Dfg.mul_cc g x2 x in
  let y = Dfg.mul_cp g x3 (Dfg.const g "a3") in
  let a1x = Dfg.mul_cp g x (Dfg.const g "a1") in
  let a1x2 = Dfg.mul_cc g a1x a1x in
  let y2 = Dfg.mul_cc g y y in
  let y4 = Dfg.mul_cc g y2 y2 in
  let sum = Dfg.add_cc g a1x2 y4 in
  let z = Dfg.mul_cp g sum (Dfg.const g "a4") in
  Dfg.set_outputs g [ z ];
  g

(* Deterministic constant payloads for interpreting the hand-built
   graphs. *)
let const_env ~dim name =
  let rng = Ckks.Prng.create (Int64.of_int (Hashtbl.hash name)) in
  Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-0.4) ~hi:0.4)

let input_env ~dim seed =
  let rng = Ckks.Prng.create seed in
  Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-1.0) ~hi:1.0)

(* Random legal management-free DFGs for property tests: layered graphs of
   ct operations whose depth stays below the given bound. *)
let random_dfg_gen ~max_nodes ~max_depth =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* node_budget = int_range 4 max_nodes in
  return (seed, node_budget, max_depth)

let build_random_dfg (seed, node_budget, max_depth) =
  let rng = Ckks.Prng.create (Int64.of_int seed) in
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  (* pool of (node, depth) candidates *)
  let pool = ref [ (x, 0) ] in
  let pick () =
    let l = !pool in
    List.nth l (Ckks.Prng.int rng ~bound:(List.length l))
  in
  let counter = ref 0 in
  for _ = 1 to node_budget do
    incr counter;
    let a, da = pick () in
    let choice = Ckks.Prng.int rng ~bound:5 in
    let node, depth =
      match choice with
      | 0 when da < max_depth -> (Dfg.mul_cc g a a, da + 1)
      | 1 when da < max_depth ->
          (Dfg.mul_cp g a (Dfg.const g (Printf.sprintf "c%d" !counter)), da + 1)
      | 2 ->
          let b, db = pick () in
          if db = da then (Dfg.add_cc g a b, da)
          else (Dfg.rotate g a 1, da)
      | 3 -> (Dfg.rotate g a ((Ckks.Prng.int rng ~bound:5) - 2), da)
      | _ -> (Dfg.add_cp g a (Dfg.const g (Printf.sprintf "k%d" !counter)), da)
    in
    pool := (node, depth) :: !pool
  done;
  (* outputs: all sinks *)
  let sinks =
    List.filter_map
      (fun n ->
        if n.Dfg.users = [] && Op.produces_ct n.Dfg.kind then Some n.Dfg.id else None)
      (Dfg.live_nodes g)
  in
  Dfg.set_outputs g sinks;
  g

(* --- Topological-order oracle -------------------------------------------- *)

(* [Dfg.topo_order] as it stood before the array pass: the graph copied
   into list adjacency (one edge per distinct argument of each live node,
   added in ascending consumer id, deduplicated with [List.mem]; a self
   edge raised [Invalid_argument]), then Kahn's algorithm with a [Queue],
   roots in ascending id and successors in insertion order, and dead
   nodes filtered from the result.  The witness of a cycle is the least
   node left with a positive in-degree. *)
let topo_oracle g =
  let n = Dfg.node_count g in
  let succ = Array.make n [] and indeg = Array.make n 0 in
  for id = 0 to n - 1 do
    let node = Dfg.node g id in
    if not node.Dfg.dead then
      Array.iter
        (fun a ->
          if a = id then invalid_arg "Digraph.add_edge: self edge";
          if not (List.mem id succ.(a)) then begin
            succ.(a) <- id :: succ.(a);
            indeg.(id) <- indeg.(id) + 1
          end)
        node.Dfg.args
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    incr seen;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      (List.rev succ.(u))
  done;
  if !seen <> n then begin
    let witness = ref (-1) in
    for v = n - 1 downto 0 do
      if indeg.(v) > 0 then witness := v
    done;
    raise (Dfg.Cycle !witness)
  end;
  List.filter (fun id -> not (Dfg.node g id).Dfg.dead) (List.rev !order)

(* --- Max-flow oracle ---------------------------------------------------- *)

(* The planners' arc idiom: a finite arc with the infinite reverse arc
   that keeps the cut's source side closed under predecessors (so each
   path crosses the cut exactly once); an infinite arc gets no
   companion. *)
let add_with_reverse net ~src ~dst ~cap =
  Graphlib.Maxflow.add_edge net ~src ~dst ~cap;
  if cap < infinity then Graphlib.Maxflow.add_edge net ~src:dst ~dst:src ~cap:infinity

(* [Graphlib.Maxflow] as it stood before the CSR layout: Dinic over
   adjacency lists of arc records (prepended, reversed once), a [Queue]
   BFS and a recursive current-arc DFS, one fresh network per solve.
   [maxflow_oracle ~nodes arcs ~source ~sink] adds [arcs] in order and
   returns the min cut, its certificate and the solve's stats. *)
let maxflow_oracle ~nodes arcs ~source ~sink =
  let module M = Graphlib.Maxflow in
  let eps = 1e-9 in
  let module A = struct
    type arc = {
      dst : int;
      mutable cap : float;
      rev : int;
      original : bool;
      user : bool;
      init_cap : float;
    }
  end in
  let open A in
  let pending = Array.make (max nodes 1) [] and deg = Array.make (max nodes 1) 0 in
  List.iter
    (fun (src, dst, cap) ->
      let fwd_pos = deg.(src) in
      deg.(src) <- fwd_pos + 1;
      let bwd_pos = deg.(dst) in
      deg.(dst) <- bwd_pos + 1;
      pending.(src) <-
        { dst; cap; rev = bwd_pos; original = cap < infinity; user = true; init_cap = cap }
        :: pending.(src);
      pending.(dst) <-
        { dst = src; cap = 0.0; rev = fwd_pos; original = false; user = false; init_cap = 0.0 }
        :: pending.(dst))
    arcs;
  let adj = Array.map (fun l -> Array.of_list (List.rev l)) (Array.sub pending 0 nodes) in
  let bfs_phases = ref 0 and aug_paths = ref 0 in
  let level = Array.make nodes (-1) in
  let bfs () =
    incr bfs_phases;
    Array.fill level 0 nodes (-1);
    level.(source) <- 0;
    let queue = Queue.create () in
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun a ->
          if a.cap > eps && level.(a.dst) < 0 then begin
            level.(a.dst) <- level.(u) + 1;
            Queue.add a.dst queue
          end)
        adj.(u)
    done;
    level.(sink) >= 0
  in
  let rec dfs iter u pushed =
    if u = sink then pushed
    else begin
      let res = ref 0.0 in
      while !res = 0.0 && iter.(u) < Array.length adj.(u) do
        let a = adj.(u).(iter.(u)) in
        if a.cap > eps && level.(a.dst) = level.(u) + 1 then begin
          let d = dfs iter a.dst (min pushed a.cap) in
          if d > eps then begin
            a.cap <- a.cap -. d;
            let back = adj.(a.dst).(a.rev) in
            back.cap <- back.cap +. d;
            res := d
          end
          else iter.(u) <- iter.(u) + 1
        end
        else iter.(u) <- iter.(u) + 1
      done;
      !res
    end
  in
  let flow = ref 0.0 in
  (try
     while bfs () do
       let iter = Array.make nodes 0 in
       let pushed = ref (dfs iter source infinity) in
       while !pushed > eps do
         flow := !flow +. !pushed;
         incr aug_paths;
         if !flow = infinity then raise Exit;
         pushed := dfs iter source infinity
       done
     done
   with Exit -> ());
  let side = Array.make nodes false in
  side.(source) <- true;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun a ->
        if a.cap > eps && not side.(a.dst) then begin
          side.(a.dst) <- true;
          Queue.add a.dst queue
        end)
      adj.(u)
  done;
  let edges = ref [] in
  for u = 0 to nodes - 1 do
    if side.(u) then
      Array.iter
        (fun a -> if a.original && not side.(a.dst) then edges := (u, a.dst) :: !edges)
        adj.(u)
  done;
  let cut = { M.value = !flow; source_side = side; edges = List.rev !edges } in
  let cert_arcs = ref [] in
  for u = nodes - 1 downto 0 do
    let row = adj.(u) in
    for i = Array.length row - 1 downto 0 do
      let a = row.(i) in
      if a.user then
        cert_arcs :=
          { M.fa_src = u; fa_dst = a.dst; fa_cap = a.init_cap; fa_flow = adj.(a.dst).(a.rev).cap }
          :: !cert_arcs
    done
  done;
  let cert =
    {
      M.cert_nodes = nodes;
      cert_source = source;
      cert_sink = sink;
      cert_value = !flow;
      cert_source_side = Array.copy side;
      cert_arcs = Array.of_list !cert_arcs;
    }
  in
  let stats =
    { M.nodes; arcs = 2 * List.length arcs; bfs_phases = !bfs_phases; aug_paths = !aug_paths }
  in
  (cut, cert, stats)

(* --- Table 1 oracle -------------------------------------------------- *)

(* A second, independent reading of Table 1 with the clamping of
   [Scale_check.infer]'s lenient propagation: the oracle the library's one
   rule ([Scale_check.transfer]) is checked against.  Constants are
   plaintexts whose encoding scale their consumers decide, so only a
   constant's [is_ct] is ever read; dead nodes read as level-0 plaintexts
   at the waterline. *)
let table1_point (prm : Ckks.Params.t) (pt : Scale_check.info array) (node : Dfg.node) =
  let q = prm.scale_bits and qw = prm.waterline_bits in
  let arg i = pt.(node.args.(i)) in
  let ct_operand () =
    let a = arg 0 in
    if a.is_ct || Array.length node.args < 2 then a
    else
      let b = arg 1 in
      if b.is_ct then b else a
  in
  (* Level of a binary ct operation: the min over its ct operands. *)
  let join_level (a : Scale_check.info) (b : Scale_check.info) =
    match (a.is_ct, b.is_ct) with
    | true, true -> min a.level b.level
    | true, false -> a.level
    | false, true -> b.level
    | false, false -> 0
  in
  let ct scale_bits level = { Scale_check.scale_bits; level; is_ct = true } in
  match node.kind with
  | Op.Input { level; scale_bits; _ } ->
      ct
        (Option.value scale_bits ~default:prm.input_scale_bits)
        (Option.value level ~default:prm.input_level)
  | Op.Const _ -> { Scale_check.scale_bits = qw; level = 0; is_ct = false }
  | Op.Add_cc -> ct (ct_operand ()).scale_bits (join_level (arg 0) (arg 1))
  | Op.Add_cp -> { (ct_operand ()) with is_ct = true }
  | Op.Mul_cc ->
      let a = arg 0 and b = arg 1 in
      ct (a.scale_bits + b.scale_bits) (join_level a b)
  | Op.Mul_cp ->
      let a = ct_operand () in
      ct (a.scale_bits + qw) a.level
  | Op.Rotate _ | Op.Relin -> { (arg 0) with is_ct = true }
  | Op.Rescale ->
      let a = arg 0 in
      ct (max (a.scale_bits - q) 1) (max (a.level - 1) 0)
  | Op.Modswitch ->
      let a = arg 0 in
      ct a.scale_bits (max (a.level - 1) 0)
  | Op.Bootstrap target -> ct q target

let table1_oracle (prm : Ckks.Params.t) g =
  let pt =
    Array.make (Dfg.node_count g)
      { Scale_check.scale_bits = prm.waterline_bits; level = 0; is_ct = false }
  in
  List.iter (fun id -> pt.(id) <- table1_point prm pt (Dfg.node g id)) (Dfg.topo_order g);
  pt

(* Everything a compile promises to reproduce bit-for-bit: the managed
   graph's structural snapshot plus every deterministic report field.
   Wall-clock ([compile_ms]) and the profile are explicitly excluded. *)
let fingerprint ((g : Dfg.t), (r : Resbm.Report.t)) =
  ( Dfg.export g,
    r.Resbm.Report.manager,
    r.Resbm.Report.latency_ms,
    r.Resbm.Report.stats,
    r.Resbm.Report.segments,
    r.Resbm.Report.repair_bootstraps,
    r.Resbm.Report.ms_opt_hoists,
    r.Resbm.Report.region_count,
    Array.to_list r.Resbm.Report.region_of )

(* Renumber a graph: map node i to perm(i) for a seeded random
   permutation, rewriting args and outputs.  Plan digests must not see
   the difference. *)
let renumber seed g =
  let nodes, outputs = Dfg.export g in
  let n = Array.length nodes in
  let perm = Array.init n (fun i -> i) in
  let st = Random.State.make [| 0xD16E57; seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let nodes' = Array.make n nodes.(0) in
  Array.iteri
    (fun i (x : Dfg.exported_node) ->
      nodes'.(perm.(i)) <-
        { x with Dfg.ex_args = Array.map (fun a -> perm.(a)) x.Dfg.ex_args })
    nodes;
  Dfg.import (nodes', List.map (fun o -> perm.(o)) outputs)

(* --- Slot-level pins ---------------------------------------------------- *)

(* MD5 of every output slot's IEEE bit pattern, in output order: a pin
   that any reordered draw or changed float expression moves. *)
let slots_digest (cts : Ckks.Ciphertext.t list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c : Ckks.Ciphertext.t) ->
      Array.iter
        (fun v -> Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float v)))
        (Ckks.Ciphertext.to_array c))
    cts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every NaN slot digests alike whatever noise produced it, so a digest
   pins a run only when its outputs are finite. *)
let slots_finite (cts : Ckks.Ciphertext.t list) =
  List.for_all
    (fun c -> Array.for_all Float.is_finite (Ckks.Ciphertext.to_array c))
    cts

(* ResNet-20 compiled by the resbm manager at l_max 16 with a [dim]-slot
   dataset image and the lowering's constants: (params, managed graph,
   environment, region attribution). *)
let resnet20_env ~dim =
  let prm =
    Ckks.Params.with_l_max { Ckks.Params.default with Ckks.Params.input_level = 16 } 16
  in
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let managed, report = Resbm.Driver.compile prm lowered.Nn.Lowering.dfg in
  let env =
    {
      Fhe_ir.Interp.inputs =
        [
          ( lowered.Nn.Lowering.input_name,
            (Nn.Dataset.images ~seed:3L ~dim ~count:1 ()).(0) );
        ];
      consts = Nn.Lowering.resolver lowered ~dim;
    }
  in
  let region_of id =
    let attr = report.Resbm.Report.region_of in
    if id >= 0 && id < Array.length attr then attr.(id) else -1
  in
  (prm, managed, env, region_of)

(* --- Recovery oracle ------------------------------------------------------ *)

(* [Resilience.Recovery.run_program] as it stood before recovery validated
   each value once: every boundary runs the three validators on every
   live ciphertext.  The trace instants and log records are left out;
   everything that feeds the result, the stats or a raised error is
   kept.  Also returns the number of ciphertext validations. *)
let recovery_oracle ?(config = Resilience.Recovery.default) ~noise prog ev env =
  let module R = Resilience.Recovery in
  let module P = Fhe_ir.Interp.Program in
  let module S = Fhe_ir.Interp.Session in
  let injected_now () =
    match Ckks.Fault.current () with None -> 0 | Some f -> Ckks.Fault.injected f
  in
  let blame ~mark ~fallback =
    match Ckks.Fault.current () with
    | None -> fallback
    | Some f -> (
        match
          List.rev
            (List.filter (fun i -> i.Ckks.Fault.index >= mark) (Ckks.Fault.injections f))
        with
        | i :: _ -> Ckks.Fault.kind_name i.Ckks.Fault.inj_kind
        | [] -> fallback)
  in
  let headroom = Obs.Trace.headroom_bits in
  let s = S.create prog ev in
  let order = P.order prog in
  let n = Array.length order in
  let info = P.info prog in
  let predicted = noise.Fhe_ir.Noise_check.per_node in
  let budget =
    match config.R.checkpoint_budget_bytes with
    | Some b -> b
    | None -> Float.max (2.0 *. P.peak_bytes prog) 1.0
  in
  let retries = ref 0 and refreshes = ref 0 and validations = ref 0 in
  let n_checkpoints = ref 0 and evictions = ref 0 in
  let bytes_peak = ref 0.0 and backoff_total = ref 0.0 and capped = ref 0 in
  let charges = ref [] in
  let start_mark = injected_now () in
  let fault_mark = ref start_mark and attempts = ref 0 in
  let checkpoints = ref [] and retained = ref 0.0 and pos = ref 0 in
  let take_checkpoint i =
    (match !checkpoints with
    | cp :: _ when S.snapshot_at cp = i -> ()
    | _ ->
        let cp = S.snapshot s in
        checkpoints := cp :: !checkpoints;
        incr n_checkpoints;
        retained := !retained +. S.snapshot_bytes cp;
        bytes_peak := Float.max !bytes_peak !retained;
        let rec evict_to_budget lst =
          if !retained <= budget then lst
          else
            match lst with
            | [] | [ _ ] -> lst
            | newest :: rest ->
                let arr = Array.of_list rest in
                let m = Array.length arr in
                let best = ref 0 and best_value = ref infinity in
                for j = 0 to m - 1 do
                  let p = S.snapshot_at arr.(j) in
                  let q = if j + 1 < m then S.snapshot_at arr.(j + 1) else 0 in
                  let value = P.prefix_ms prog p -. P.prefix_ms prog q in
                  if value <= !best_value then begin
                    best := j;
                    best_value := value
                  end
                done;
                incr evictions;
                retained := !retained -. S.snapshot_bytes arr.(!best);
                evict_to_budget (newest :: List.filteri (fun j _ -> j <> !best) rest)
        in
        checkpoints := evict_to_budget !checkpoints);
    attempts := 0;
    fault_mark := injected_now ()
  in
  let do_rollback ~why =
    let cp = List.hd !checkpoints in
    let kind = blame ~mark:!fault_mark ~fallback:why in
    incr retries;
    let before = S.latency_ms s in
    let resume = S.rollback s cp in
    let wasted = before -. S.latency_ms s in
    incr attempts;
    let raw = config.R.backoff_ms *. (2.0 ** float_of_int (!attempts - 1)) in
    let delay = Float.min raw config.R.max_backoff_ms in
    if delay < raw then incr capped;
    S.charge_ms s delay;
    backoff_total := !backoff_total +. delay;
    charges := (kind, delay) :: (kind, wasted) :: !charges;
    fault_mark := injected_now ();
    pos := resume
  in
  let handle_exec_error e =
    let retryable = Ckks.Evaluator.transient e || injected_now () > !fault_mark in
    if retryable && !attempts < config.R.max_attempts then
      do_rollback ~why:(Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause)
    else raise (Ckks.Evaluator.Fhe_error e)
  in
  let diverged ~id (ct : Ckks.Ciphertext.t) message =
    Ckks.Evaluator.raise_error
      (Ckks.Evaluator.error ~node:id ~level:ct.Ckks.Ciphertext.level
         ~scale_bits:ct.Ckks.Ciphertext.scale_bits ~noise:ct.Ckks.Ciphertext.err
         Ckks.Evaluator.State_divergence ~op:"recovery" message)
  in
  let handle_boundary i =
    let live = S.live_cts s in
    validations := !validations + List.length live;
    let corrupt = List.filter (fun (_, ct) -> not (Ckks.Ciphertext.integrity_ok ct)) live in
    let structural =
      List.filter
        (fun (id, (ct : Ckks.Ciphertext.t)) ->
          info.(id).Scale_check.is_ct
          && (ct.Ckks.Ciphertext.level <> info.(id).Scale_check.level
             || ct.Ckks.Ciphertext.scale_bits <> info.(id).Scale_check.scale_bits))
        live
    in
    let noisy =
      List.filter
        (fun (id, (ct : Ckks.Ciphertext.t)) ->
          id < Array.length predicted
          &&
          let actual = headroom ct.Ckks.Ciphertext.err in
          let pred = headroom predicted.(id).Fhe_ir.Noise_check.noise in
          (actual < 6.0 && pred >= 6.0) || pred -. actual > 12.0)
        live
    in
    let retry = injected_now () > !fault_mark && !attempts < config.R.max_attempts in
    match (corrupt, structural, noisy) with
    | (id, ct) :: _, _, _ ->
        if retry then do_rollback ~why:"slot_integrity"
        else
          diverged ~id ct
            (Printf.sprintf
               "recovery: node %d failed slot-integrity validation (checksum mismatch) \
                beyond repair"
               id)
    | [], (id, ct) :: _, _ ->
        if retry then do_rollback ~why:"state_divergence"
        else
          diverged ~id ct
            (Printf.sprintf
               "recovery: node %d diverged from the plan (level %d scale %d, expected \
                level %d scale %d) beyond repair"
               id ct.Ckks.Ciphertext.level ct.Ckks.Ciphertext.scale_bits
               info.(id).Scale_check.level info.(id).Scale_check.scale_bits)
    | [], [], _ :: _ when retry -> do_rollback ~why:"noise_floor"
    | [], [], noisy ->
        List.iter
          (fun (id, _) ->
            ignore (S.refresh s id);
            incr refreshes)
          noisy;
        if i < n then take_checkpoint i
  in
  let result =
    Fun.protect
      ~finally:(fun () -> S.clear_ctx s)
      (fun () ->
        take_checkpoint 0;
        while !pos < n do
          let i = !pos in
          (match S.exec s env order.(i) with
          | () -> pos := i + 1
          | exception Ckks.Evaluator.Fhe_error e -> handle_exec_error e);
          if !pos > i && P.boundary prog !pos then handle_boundary !pos
        done;
        if n = 0 then handle_boundary 0;
        S.finish s)
  in
  ( result,
    {
      R.retries = !retries;
      panic_refreshes = !refreshes;
      checkpoints = !n_checkpoints;
      evictions = !evictions;
      checkpoint_bytes_peak = !bytes_peak;
      recovery =
        {
          R.recovery_ms_by_kind = R.tally ( +. ) 0.0 (List.rev !charges);
          backoff_ms_total = !backoff_total;
          capped_backoffs = !capped;
        };
      injected_faults = injected_now () - start_mark;
      held_checkpoints = List.sort compare (List.map S.snapshot_at !checkpoints);
    },
    !validations )

(* --- BTSMGR oracle ---------------------------------------------------------- *)

(* [Resbm.Btsmgr.plan] (without its counters) as
   it stood before it bounded its work: every source refills the
   production level of every region and walks its chain back to region
   0, and every candidate segment re-checks the rescale and capacity
   feasibility of every region it covers.  The float expressions and
   their summation order are the planner's, so segments, actions and
   [dp_latency_ms] must match it bit for bit. *)
let btsmgr_oracle ?(config = Resbm.Btsmgr.resbm_config) (regioned : Resbm.Region.t) prm =
  let module B = Resbm.Btsmgr in
  let module S = Resbm.Scalemgr in
  let module E = Resbm.Region_eval in
  let count = regioned.Resbm.Region.count in
  let last = count - 1 in
  let l_max = prm.Ckks.Params.l_max in
  let input_level = prm.Ckks.Params.input_level in
  let cache = E.create_cache prm in
  let eval ~region ~entry_level ~rescales ~bts =
    E.eval cache regioned ~smo_mode:config.B.smo_mode ~bts_mode:config.B.bts_mode ~region
      ~entry_level ~rescales ~bts
  in
  let latency ~region ~entry_level ~rescales ~bts =
    E.latency cache regioned ~smo_mode:config.B.smo_mode ~bts_mode:config.B.bts_mode ~region
      ~entry_level ~rescales ~bts
  in
  (* Cross edges by consumer region, as the planner groups them. *)
  let cross = Array.make count [] in
  List.iter
    (fun (n : Dfg.node) ->
      if Op.produces_ct n.Dfg.kind then begin
        let ra = regioned.Resbm.Region.region_of.(n.Dfg.id) in
        Dfg.succs regioned.Resbm.Region.dfg n.Dfg.id
        |> List.map (fun u -> regioned.Resbm.Region.region_of.(u))
        |> List.filter (fun rb -> rb > ra + 1)
        |> List.sort_uniq compare
        |> List.iter (fun rb -> cross.(rb) <- (ra, n.Dfg.freq) :: cross.(rb))
      end)
    (Dfg.live_nodes regioned.Resbm.Region.dfg);
  if count = 1 then
    {
      B.actions =
        [|
          {
            B.rescales = 0;
            entry_level = input_level;
            entry_scale = prm.Ckks.Params.input_scale_bits;
            smo_cut = None;
            bts = None;
          };
        |];
      segments = [];
      dp_latency_ms = latency ~region:0 ~entry_level:input_level ~rescales:0 ~bts:None;
    }
  else begin
    (* A segment: its source, bootstrap target, source entry level, top,
       the region infos from the source on and their rescale prefix sums
       ([lbts.(i)]: rescales of regions [(src, src + i]]), latency. *)
    let module Seg = struct
      type t = {
        src : int;
        bts : int option;
        entry : int;
        top : int;
        infos : S.region_info array;
        lbts : int array;
        lat : float;
      }
    end in
    let level (s : Seg.t) r =
      if r = s.Seg.src then s.Seg.entry else s.Seg.top - s.Seg.lbts.(r - s.Seg.src - 1)
    in
    let min_lat = Array.make count infinity in
    let best : Seg.t option array = Array.make count None in
    let boundary_scale = Array.make count 0 and boundary_level = Array.make count 0 in
    let prod_level = Array.make count input_level in
    min_lat.(0) <- 0.0;
    boundary_scale.(0) <- prm.Ckks.Params.input_scale_bits;
    boundary_level.(0) <- input_level;
    (* The window from [src] to [dst], grown one region per destination. *)
    let window src ~bts_at_src =
      let first = S.step regioned prm ~region:src ~entry_scale:boundary_scale.(src) in
      let infos = ref [| first |] in
      let lbts = ref [| 0 |] in
      fun dst ->
        while Array.length !infos <= dst - src do
          let i = Array.length !infos in
          let bts = i = 1 && bts_at_src in
          let entry_scale = S.next_entry_scale prm ~bts !infos.(i - 1) in
          let info = S.step regioned prm ~region:(src + i) ~entry_scale in
          infos := Array.append !infos [| info |];
          lbts := Array.append !lbts [| !lbts.(i - 1) + info.S.rescales |]
        done;
        (!infos, !lbts)
    in
    let try_segment ~src ~bts_at_src win dst =
      let infos, lbts = win dst in
      let info r = infos.(r - src) in
      let no_bts = not bts_at_src in
      let src_entry = boundary_level.(src) in
      let k_src = (info src).S.rescales in
      let is_final = dst = last in
      let lbts_req =
        if is_final then begin
          let q = prm.Ckks.Params.scale_bits in
          let cap_need = max 0 ((((info dst).S.peak_scale + q - 1) / q) - 1) in
          lbts.(dst - src) - (info dst).S.rescales + cap_need
        end
        else lbts.(dst - src)
      in
      let budget = if no_bts then src_entry - k_src else l_max in
      if lbts_req > budget || k_src > src_entry then None
      else begin
        let bts =
          if no_bts then None
          else Some (if config.B.min_level_bts then max lbts_req 1 else max l_max 1)
        in
        let top = match bts with Some t -> t | None -> src_entry - k_src in
        let seg = { Seg.src; bts; entry = src_entry; top; infos; lbts; lat = 0.0 } in
        let fits r level =
          Ckks.Evaluator.capacity_ok prm ~scale_bits:(info r).S.peak_scale ~level
        in
        for r = src + 1 to dst do
          let k = (info r).S.rescales and lv = level seg r in
          if k > lv && not (is_final && r = dst) then raise_notrace Not_found;
          if not (fits r lv) then raise_notrace Not_found
        done;
        if not (fits src src_entry) then raise_notrace Not_found;
        let lat = ref 0.0 in
        (try
           lat := latency ~region:src ~entry_level:src_entry ~rescales:k_src ~bts;
           for r = src + 1 to dst - 1 do
             lat :=
               !lat
               +. latency ~region:r ~entry_level:(level seg r) ~rescales:(info r).S.rescales
                    ~bts:None
           done
         with E.Infeasible _ -> raise_notrace Not_found);
        if config.B.price_transits then
          for rb = src + 1 to dst do
            let need = level seg rb in
            List.iter
              (fun (ra, freq) ->
                if ra < src && prod_level.(ra) < need && need <= l_max then
                  lat :=
                    !lat
                    +. float_of_int freq
                       *. Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:need)
              cross.(rb)
          done;
        Some { seg with Seg.lat = !lat }
      end
    in
    for src = 0 to last - 1 do
      if min_lat.(src) < infinity then begin
        Array.fill prod_level 0 count input_level;
        let at = ref src in
        while !at > 0 do
          match best.(!at) with
          | None -> at := 0
          | Some seg ->
              for r = seg.Seg.src to !at - 1 do
                let base = level seg r - (seg.Seg.infos.(r - seg.Seg.src)).S.rescales in
                prod_level.(r) <-
                  (match seg.Seg.bts with
                  | Some t when r = seg.Seg.src -> max t base
                  | _ -> base)
              done;
              at := seg.Seg.src
        done;
        let consider d (seg : Seg.t) =
          let cand = min_lat.(src) +. seg.Seg.lat in
          if cand < min_lat.(d) then begin
            min_lat.(d) <- cand;
            best.(d) <- Some seg;
            boundary_scale.(d) <- (seg.Seg.infos.(d - src)).S.entry_scale;
            boundary_level.(d) <- level seg d
          end
        in
        let win = window src ~bts_at_src:true in
        let input_win = if src = 0 then Some (window src ~bts_at_src:false) else None in
        let continue_scan = ref true and dst = ref (src + 1) in
        while !continue_scan && !dst <= last do
          let d = !dst in
          Option.iter
            (fun w ->
              match try_segment ~src ~bts_at_src:false w d with
              | Some seg -> consider d seg
              | None | (exception Not_found) -> ())
            input_win;
          (match try_segment ~src ~bts_at_src:true win d with
          | Some seg -> consider d seg
          | None -> continue_scan := false
          | exception Not_found -> ());
          incr dst
        done
      end
    done;
    if min_lat.(last) = infinity then raise (B.No_plan "oracle: no feasible plan");
    let segments = ref [] and at = ref last in
    while !at > 0 do
      match best.(!at) with
      | None -> raise (B.No_plan "oracle: unreachable region")
      | Some seg ->
          segments := (seg.Seg.src, !at, seg) :: !segments;
          at := seg.Seg.src
    done;
    let actions =
      Array.make count
        {
          B.rescales = 0;
          entry_level = 0;
          entry_scale = prm.Ckks.Params.input_scale_bits;
          smo_cut = None;
          bts = None;
        }
    in
    List.iter
      (fun (src, dst, (seg : Seg.t)) ->
        for r = src to dst - 1 do
          let info = seg.Seg.infos.(r - src) in
          let entry_level = level seg r in
          let bts_here = if r = src then seg.Seg.bts else None in
          let res = eval ~region:r ~entry_level ~rescales:info.S.rescales ~bts:bts_here in
          actions.(r) <-
            {
              B.rescales = info.S.rescales;
              entry_level;
              entry_scale = info.S.entry_scale;
              smo_cut = res.E.smo_cut;
              bts =
                Option.map
                  (fun target ->
                    { B.target; cut = res.E.bts_cut; subgraph = res.E.bts_subgraph })
                  bts_here;
            }
        done)
      !segments;
    let final_latency =
      latency ~region:last ~entry_level:boundary_level.(last) ~rescales:0 ~bts:None
    in
    actions.(last) <-
      {
        B.rescales = 0;
        entry_level = boundary_level.(last);
        entry_scale = boundary_scale.(last);
        smo_cut = None;
        bts = None;
      };
    {
      B.actions;
      segments = List.map (fun (s, d, _) -> (s, d)) !segments;
      dp_latency_ms = min_lat.(last) +. final_latency;
    }
  end

(* --- BTSPLC oracle ------------------------------------------------------------ *)

(* [Resbm.Btsplc.cut] as it stood before its templates: one fresh flow
   network per call, arcs added in Algorithm 5's order with their
   capacities (no refill), the certificate exported right after the
   solve.  Template re-solves must give its cuts and certificates bit for
   bit. *)
let btsplc_oracle (shape : Resbm.Region.shape) ~lbts ~subgraph =
  let module Region = Resbm.Region in
  let module Cut = Resbm.Cut in
  let module Smoplc = Resbm.Smoplc in
  if lbts < 1 then invalid_arg "Btsplc.run: bootstrap target below 1";
  if subgraph = [] then invalid_arg "Btsplc.run: empty subgraph";
  let slots = shape.Region.slots in
  let node_at = Array.of_list subgraph in
  let k = Array.length node_at in
  (* [index.(s)]: slot [s]'s flow node, or -1 outside the subgraph. *)
  let index = Array.make (Array.length slots) (-1) in
  Array.iteri (fun i s -> index.(s) <- i) node_at;
  let in_sub s = index.(s) >= 0 in
  let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
  let bts_cost s = float_of_int slots.(s).Region.freq *. unit_cost in
  (* Per flow node: in-subgraph successors and predecessors, and the
     external ciphertext producers it reads, each in slot-list order. *)
  let internal_succs = Array.map (fun s -> List.filter in_sub slots.(s).Region.succs) node_at in
  let internal_preds = Array.map (fun s -> List.filter in_sub slots.(s).Region.preds) node_at in
  let external_preds =
    Array.map
      (fun s ->
        List.filter
          (fun p -> Op.produces_ct slots.(p).Region.kind && not (in_sub p))
          slots.(s).Region.preds)
      node_at
  in
  let indeg i = List.length external_preds.(i) + List.length internal_preds.(i) in
  (* In-region successors are the only ones a shape names; any other
     consumer makes the slot live-out. *)
  let is_liveout s =
    slots.(s).Region.live_out
    || List.exists (fun u -> not (in_sub u)) slots.(s).Region.succs
  in
  (* Cumulative increase of running a node and its in-subgraph successors
     at l_bts instead of level 0 (Algorithm 5, lines 5-10, reverse topo). *)
  let linc = Array.make k 0.0 in
  for i = k - 1 downto 0 do
    let s = node_at.(i) in
    if internal_succs.(i) <> [] then
      linc.(i) <-
        List.fold_left
          (fun acc m -> acc +. linc.(index.(m)))
          (Smoplc.cost_of slots.(s) ~level:lbts -. Smoplc.cost_of slots.(s) ~level:0)
          internal_succs.(i)
  done;
  (* External ciphertext producers feeding the subgraph.  A bootstrap on a
     boundary edge is inserted once after the producer and serves every
     head it feeds, so each producer becomes one flow node whose
     source-side arc carries the full (grouped) insertion cost.  Flow
     nodes are numbered in first-read order; [heads_of.(p)] lists the
     heads reading producer [p], latest first. *)
  let flow_of = Array.make (Array.length slots) (-1) in
  let heads_of = Array.make (Array.length slots) [] in
  let next_flow = ref (k + 2) in
  Array.iteri
    (fun i h ->
      List.iter
        (fun p ->
          if flow_of.(p) < 0 then begin
            flow_of.(p) <- !next_flow;
            incr next_flow
          end;
          heads_of.(p) <- h :: heads_of.(p))
        external_preds.(i))
    node_at;
  let net = Graphlib.Maxflow.create !next_flow in
  let s = k and t = k + 1 in
  (* Source-side arcs through the producer nodes, in ascending producer
     slot order: arc insertion order steers the augmenting-path search,
     so it must be a function of the shape alone. *)
  Array.iteri
    (fun p fn ->
      if fn >= 0 then begin
        let share =
          List.fold_left
            (fun acc h ->
              let i = index.(h) in
              acc +. (linc.(i) /. float_of_int (max (indeg i) 1)))
            0.0 heads_of.(p)
        in
        add_with_reverse net ~src:s ~dst:fn ~cap:(bts_cost p +. share);
        List.iter
          (fun h -> Graphlib.Maxflow.add_edge net ~src:fn ~dst:index.(h) ~cap:infinity)
          heads_of.(p)
      end)
    flow_of;
  Array.iteri
    (fun i sl ->
      let indeg = indeg i in
      (* Entry nodes with no inputs at all still anchor to the source so
         their downstream paths get covered. *)
      if indeg = 0 then add_with_reverse net ~src:s ~dst:i ~cap:infinity;
      let weight_in =
        if indeg = 0 then infinity
        else if slots.(sl).Region.kind = Op.Relin then infinity
          (* never separate a relin from its multiplication *)
        else (bts_cost sl +. linc.(i)) /. float_of_int indeg
      in
      List.iter
        (fun p ->
          let wp = if slots.(p).Region.kind = Op.Mul_cc then infinity else weight_in in
          add_with_reverse net ~src:index.(p) ~dst:i ~cap:wp)
        internal_preds.(i);
      (* Baseline: bootstrap after the live-out producers (region end). *)
      if internal_succs.(i) = [] || is_liveout sl then
        add_with_reverse net ~src:i ~dst:t ~cap:(bts_cost sl))
    node_at;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  let node_of = Array.make !next_flow (-1) in
  Array.blit node_at 0 node_of 0 k;
  Array.iteri (fun p fn -> if fn >= 0 then node_of.(fn) <- p) flow_of;
  let edges =
    List.concat_map
      (fun (u, v) ->
        if u = s then
          if v >= k + 2 then
            (* Arc into a producer node: bootstrap its boundary edges. *)
            List.map (fun h -> Cut.Boundary_in { head = h }) heads_of.(node_of.(v))
          else [ Cut.Boundary_in { head = node_at.(v) } ]
        else if v = t then [ Cut.Boundary_out { tail = node_at.(u) } ]
        else [ Cut.Internal { tail = node_at.(u); head = node_at.(v) } ])
      mc.Graphlib.Maxflow.edges
  in
  let sink_side = ref [] in
  for i = k - 1 downto 0 do
    if not mc.Graphlib.Maxflow.source_side.(i) then sink_side := node_at.(i) :: !sink_side
  done;
  {
    Cut.edges;
    value = mc.Graphlib.Maxflow.value;
    sink_side = !sink_side;
    cert = Some cert;
    node_of;
  }
