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
  (* The network, its arcs added once in Algorithm 4's order.  Its shape
     does not depend on the level: a weighted arc gets its infinite
     reverse arc exactly when its weight is finite, i.e. when its tail is
     not a [Mul_cc].  [weighted.(e) >= 0] names the member whose weight
     caps arc [e], refilled per level; [-1] marks an infinite arc. *)
  net : Graphlib.Maxflow.t;
  weighted : int array;
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
  let net = Graphlib.Maxflow.create (k + 2) in
  let weighted = ref [] in
  let infinite src dst =
    Graphlib.Maxflow.add_edge net ~src ~dst ~cap:infinity;
    weighted := -1 :: !weighted
  in
  let arc src dst w =
    if kind node_at.(w) = Op.Mul_cc then infinite src dst
    else begin
      Graphlib.Maxflow.add_edge net ~src ~dst ~cap:0.0;
      weighted := w :: !weighted;
      infinite dst src
    end
  in
  let degree =
    Array.mapi
      (fun i slot ->
        if entry.(i) then infinite s i;
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
        then infinite i t;
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
    net;
    weighted = Array.of_list (List.rev !weighted);
  }

(* The level-dependent half: capacities from the Table 2 costs at [level]
   filled into the template's network, then one Dinic run.  The
   certificate is deferred: built from the solve's snapshot on demand. *)
let solve_at tp ~level =
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
  (* Arcs out of a [Mul_cc] are infinite in the template; every other
     weighted tail has a positive degree. *)
  let rescale = Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level in
  let weight i =
    let slot = tp.slots.(tp.node_at.(i)) in
    ((float_of_int slot.Region.freq *. rescale) +. linc.(i)) /. float_of_int tp.degree.(i)
  in
  Array.iteri
    (fun e w -> if w >= 0 then Graphlib.Maxflow.set_capacity tp.net e (weight w))
    tp.weighted;
  let mc = Graphlib.Maxflow.min_cut tp.net ~source:s ~sink:t in
  (* The next level refills this network: keep what a certificate reads. *)
  let snapshot = Graphlib.Maxflow.snapshot tp.net in
  Obs.Counter.bump cuts;
  let edges =
    List.filter_map
      (fun (u, v) ->
        if u = s then None (* infinite source arcs never appear *)
        else if v = t then Some (Cut.Boundary_out { tail = tp.node_at.(u) })
        else Some (Cut.Internal { tail = tp.node_at.(u); head = tp.node_at.(v) }))
      mc.Graphlib.Maxflow.edges
  in
  let sink_side = ref [] in
  for i = k - 1 downto 0 do
    if not mc.Graphlib.Maxflow.source_side.(i) then sink_side := tp.node_at.(i) :: !sink_side
  done;
  let node_of = Array.append tp.node_at [| -1; -1 |] in
  Cut.defer
    {
      Cut.edges;
      value = mc.Graphlib.Maxflow.value;
      sink_side = !sink_side;
      cert = None;
      node_of;
    }
    (fun () -> Graphlib.Maxflow.certificate ~snapshot tp.net ~source:s ~sink:t mc)

(* Per-compile memo, one entry per shape: its template once built, and
   its cuts by level. *)
type entry = { mutable tp : template option; cuts : (int, Cut.deferred) Hashtbl.t }
type memo = entry Region.Shape_tbl.t

let create_memo () = Region.Shape_tbl.create 64

let solve ?memo shape ~level =
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
      let c = solve_at tp ~level in
      Hashtbl.add e.cuts level c;
      c

let cut ?memo shape ~level = Cut.certified (solve ?memo shape ~level)

let run ?memo regioned ~region ~level =
  let ids = Region.slots regioned region in
  Cut.relabel (Array.get ids) (cut ?memo (Region.shape regioned region) ~level)
