open Fhe_ir

let cuts = Obs.Counter.make "smoplc.cuts"

let cost_of (s : Region.slot) ~level =
  match Op.cost_op s.Region.kind with
  | None -> 0.0
  | Some op -> float_of_int s.Region.freq *. Ckks.Cost_model.cost op ~level

(* The level-independent half of Algorithm 4: everything about a shape's
   flow network except its capacities.  Member [i] is flow node [i]; the
   super-source is [k] and the super-sink [k + 1]. *)
type template = {
  slots : Region.slot array;
  node_at : int array;  (* flow node -> slot, topological *)
  entry : bool array;
  preds : int array array;  (* in-region predecessors, in [Dfg.preds] order *)
  degree : int array;  (* in-region successors, plus one when live-out *)
  (* [(src, dst, w)] in insertion order.  [w >= 0] names the member whose
     weight caps the arc (added with its infinite reverse arc when finite);
     [-1] is an infinite arc without reverse. *)
  arcs : (int * int * int) array;
}

let template (shape : Region.shape) =
  let slots = shape.Region.slots in
  let kind s = slots.(s).Region.kind in
  let members = List.init shape.Region.members Fun.id in
  let nodes = List.filter (fun s -> Op.produces_ct (kind s)) members in
  if nodes = [] then invalid_arg "Smoplc.run: empty region";
  let node_at = Array.of_list nodes in
  let k = Array.length node_at in
  let index = Array.make (Array.length slots) (-1) in
  Array.iteri (fun i s -> index.(s) <- i) node_at;
  let in_region s = index.(s) >= 0 in
  let s = k and t = k + 1 in
  let preds = Array.map (fun s -> slots.(s).Region.preds) node_at in
  (* Flow sources are the multiplications — the only nodes where the scale
     increases (Table 1) — so paths that merely pass through the region
     (rotations of live-ins sunk next to their use) are never rescaled:
     their scale is already the region's entry scale.  Regions without
     multiplications (e.g. the input region when fresh ciphertexts exceed
     the waterline) fall back to their entry nodes. *)
  let entry =
    if List.exists (fun s -> Op.is_mul (kind s)) members then
      Array.map (fun s -> Op.is_mul (kind s)) node_at
    else Array.map (fun ps -> not (List.exists in_region ps)) preds
  in
  let arcs = ref [] in
  let arc src dst w = arcs := (src, dst, w) :: !arcs in
  let degree =
    Array.mapi
      (fun i slot ->
        if entry.(i) then arc s i (-1);
        let internal_heads = List.filter in_region slots.(slot).Region.succs in
        let liveout = slots.(slot).Region.live_out in
        let degree = List.length internal_heads + if liveout then 1 else 0 in
        List.iter (fun h -> arc i index.(h) i) internal_heads;
        if liveout then arc i t i;
        (* A member consuming a ciphertext produced outside the region
           (e.g. a residual add) sees that operand at the region's entry
           scale, which is the post-rescale scale: force such nodes below
           the cut so the scales on both sides of the join agree. *)
        if
          kind slot = Op.Add_cc
          && List.exists (fun p -> Op.produces_ct (kind p) && not (in_region p)) preds.(i)
        then arc i t (-1);
        degree)
      node_at
  in
  {
    slots;
    node_at;
    entry;
    preds =
      Array.map
        (fun ps -> Array.of_list (List.map (Array.get index) (List.filter in_region ps)))
        preds;
    degree;
    arcs = Array.of_list (List.rev !arcs);
  }

(* The level-dependent half: capacities from the Table 2 costs at [level],
   then one Dinic run on a fresh network. *)
let solve tp ~level =
  let k = Array.length tp.node_at in
  let s = k and t = k + 1 in
  let cost i ~level = cost_of tp.slots.(tp.node_at.(i)) ~level in
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
        let slot = tp.slots.(tp.node_at.(i)) in
        if tp.degree.(i) = 0 then 0.0
        else if slot.Region.kind = Op.Mul_cc then infinity
        else
          ((float_of_int slot.Region.freq *. Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level)
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
  Obs.Counter.bump cuts;
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

(* Per-compile memo, one entry per shape: its template once built, and
   its cuts by level. *)
type entry = { mutable tp : template option; cuts : (int, Cut.t) Hashtbl.t }
type memo = entry Region.Shape_tbl.t

let create_memo () = Region.Shape_tbl.create 64

let cut ?memo shape ~level =
  let e =
    match memo with
    | None -> { tp = None; cuts = Hashtbl.create 1 }
    | Some m -> (
        match Region.Shape_tbl.find_opt m shape with
        | Some e -> e
        | None ->
            let e = { tp = None; cuts = Hashtbl.create 8 } in
            Region.Shape_tbl.add m shape e;
            e)
  in
  match Hashtbl.find_opt e.cuts level with
  | Some c -> c
  | None ->
      if level < 1 then invalid_arg "Smoplc.run: rescaling needs level >= 1";
      let tp =
        match e.tp with
        | Some tp -> tp
        | None ->
            let tp = template shape in
            e.tp <- Some tp;
            tp
      in
      let c = solve tp ~level in
      Hashtbl.add e.cuts level c;
      c

let run ?memo regioned ~region ~level =
  let ids = Region.slots regioned region in
  Cut.relabel (Array.get ids) (cut ?memo (Region.shape regioned region) ~level)
