open Fhe_ir

let cost_of g ~level id =
  let node = Dfg.node g id in
  match Op.cost_op node.Dfg.kind with
  | None -> 0.0
  | Some op -> float_of_int node.Dfg.freq *. Ckks.Cost_model.cost op ~level

let region_latency_terms regioned prm ~region ~level =
  ignore prm;
  let g = regioned.Region.dfg in
  List.map (fun id -> (id, cost_of g ~level id)) (Region.ct_members regioned region)

(* The level-independent half of Algorithm 4: everything about a region's
   flow network except its capacities.  Member [i] is flow node [i]; the
   super-source is [k] and the super-sink [k + 1]. *)
type template = {
  g : Dfg.t;
  node_at : int array;  (* flow node -> DFG node id, topological *)
  entry : bool array;
  preds : int array array;  (* in-region predecessors, in [Dfg.preds] order *)
  degree : int array;  (* in-region successors, plus one when live-out *)
  (* [(src, dst, w)] in insertion order.  [w >= 0] names the member whose
     weight caps the arc (added with its infinite reverse arc when finite);
     [-1] is an infinite arc without reverse. *)
  arcs : (int * int * int) array;
}

let template regioned ~region =
  let g = regioned.Region.dfg in
  let nodes = Region.ct_members regioned region in
  if nodes = [] then invalid_arg "Smoplc.run: empty region";
  let node_at = Array.of_list nodes in
  let k = Array.length node_at in
  let index = Hashtbl.create (2 * k) in
  Array.iteri (fun i id -> Hashtbl.add index id i) node_at;
  let in_region id = Hashtbl.mem index id in
  let s = k and t = k + 1 in
  let kind id = (Dfg.node g id).Dfg.kind in
  let preds = Array.map (Dfg.preds g) node_at and succs = Array.map (Dfg.succs g) node_at in
  (* Flow sources are the multiplications — the only nodes where the scale
     increases (Table 1) — so paths that merely pass through the region
     (rotations of live-ins sunk next to their use) are never rescaled:
     their scale is already the region's entry scale.  Regions without
     multiplications (e.g. the input region when fresh ciphertexts exceed
     the waterline) fall back to their entry nodes. *)
  let entry =
    if Region.muls regioned region <> [] then Array.map (fun id -> Op.is_mul (kind id)) node_at
    else Array.map (fun ps -> not (List.exists in_region ps)) preds
  in
  let outs = Dfg.outputs g in
  let arcs = ref [] in
  let arc src dst w = arcs := (src, dst, w) :: !arcs in
  let degree =
    Array.mapi
      (fun i id ->
        if entry.(i) then arc s i (-1);
        let internal_heads = List.filter in_region succs.(i) in
        let liveout = List.mem id outs || List.exists (fun u -> not (in_region u)) succs.(i) in
        let degree = List.length internal_heads + if liveout then 1 else 0 in
        List.iter (fun h -> arc i (Hashtbl.find index h) i) internal_heads;
        if liveout then arc i t i;
        (* A member consuming a ciphertext produced outside the region
           (e.g. a residual add) sees that operand at the region's entry
           scale, which is the post-rescale scale: force such nodes below
           the cut so the scales on both sides of the join agree. *)
        if
          kind id = Op.Add_cc
          && List.exists (fun p -> Op.produces_ct (kind p) && not (in_region p)) preds.(i)
        then arc i t (-1);
        degree)
      node_at
  in
  {
    g;
    node_at;
    entry;
    preds =
      Array.map (fun ps -> Array.of_list (List.filter_map (Hashtbl.find_opt index) ps)) preds;
    degree;
    arcs = Array.of_list (List.rev !arcs);
  }

(* The level-dependent half: capacities from the Table 2 costs at [level],
   then one Dinic run on a fresh network. *)
let solve tp ~level =
  let k = Array.length tp.node_at in
  let s = k and t = k + 1 in
  let cost i ~level = cost_of tp.g ~level tp.node_at.(i) in
  (* Cumulative latency increase relative to rescaling right after the
     sources (Algorithm 4, lines 5-10).  Members are topological, so every
     in-region predecessor is already summed. *)
  let linc = Array.make k 0.0 in
  for i = 0 to k - 1 do
    if not tp.entry.(i) then
      linc.(i) <-
        Array.fold_left
          (fun acc p -> acc +. linc.(p))
          (cost i ~level -. cost i ~level:(level - 1))
          tp.preds.(i)
  done;
  let weight =
    Array.init k (fun i ->
        let node = Dfg.node tp.g tp.node_at.(i) in
        if tp.degree.(i) = 0 then 0.0
        else if node.Dfg.kind = Op.Mul_cc then infinity
        else
          ((float_of_int node.Dfg.freq *. Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level)
          +. linc.(i))
          /. float_of_int tp.degree.(i))
  in
  let net = Graphlib.Maxflow.create (k + 2) in
  Array.iter
    (fun (src, dst, w) ->
      if w < 0 then Graphlib.Maxflow.add_edge net ~src ~dst ~cap:infinity
      else Maxflow_util.add_with_reverse net ~src ~dst ~cap:weight.(w))
    tp.arcs;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  Obs.incr "smoplc.cuts";
  Obs.observe "smoplc.cut_value" mc.Graphlib.Maxflow.value;
  Obs.observe "smoplc.region_nodes" (float_of_int k);
  let edges =
    List.filter_map
      (fun (u, v) ->
        if u = s then None (* infinite source arcs never appear *)
        else if v = t then Some (Cut.Boundary_out { tail = tp.node_at.(u) })
        else Some (Cut.Internal { tail = tp.node_at.(u); head = tp.node_at.(v) }))
      mc.Graphlib.Maxflow.edges
  in
  let sink_side =
    List.filteri
      (fun i _ -> not mc.Graphlib.Maxflow.source_side.(i))
      (Array.to_list tp.node_at)
  in
  let node_of = Array.append tp.node_at [| -1; -1 |] in
  { Cut.edges; value = mc.Graphlib.Maxflow.value; sink_side; cert = Some cert; node_of }

(* Per-compile memo: templates by region, cuts by (region, level). *)
type memo = { templates : (int, template) Hashtbl.t; cuts : (int * int, Cut.t) Hashtbl.t }

let create_memo () = { templates = Hashtbl.create 64; cuts = Hashtbl.create 256 }

let run ?(fuel = Fuel.unlimited) ?memo regioned prm ~region ~level =
  ignore prm;
  let memoised tbl key compute =
    match memo with
    | None -> compute ()
    | Some m -> (
        match Hashtbl.find_opt (tbl m) key with
        | Some v -> v
        | None ->
            let v = compute () in
            Hashtbl.add (tbl m) key v;
            v)
  in
  memoised (fun m -> m.cuts) (region, level) (fun () ->
      Fuel.spend fuel;
      if level < 1 then invalid_arg "Smoplc.run: rescaling needs level >= 1";
      let tp = memoised (fun m -> m.templates) region (fun () -> template regioned ~region) in
      solve tp ~level)
