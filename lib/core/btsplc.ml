open Fhe_ir

let cuts = Obs.Counter.make "btsplc.cuts"

let cut (shape : Region.shape) ~lbts ~subgraph =
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
        Maxflow_util.add_with_reverse net ~src:s ~dst:fn ~cap:(bts_cost p +. share);
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
      if indeg = 0 then Maxflow_util.add_with_reverse net ~src:s ~dst:i ~cap:infinity;
      let weight_in =
        if indeg = 0 then infinity
        else if slots.(sl).Region.kind = Op.Relin then infinity
          (* never separate a relin from its multiplication *)
        else (bts_cost sl +. linc.(i)) /. float_of_int indeg
      in
      List.iter
        (fun p ->
          let wp = if slots.(p).Region.kind = Op.Mul_cc then infinity else weight_in in
          Maxflow_util.add_with_reverse net ~src:index.(p) ~dst:i ~cap:wp)
        internal_preds.(i);
      (* Baseline: bootstrap after the live-out producers (region end). *)
      if internal_succs.(i) = [] || is_liveout sl then
        Maxflow_util.add_with_reverse net ~src:i ~dst:t ~cap:(bts_cost sl))
    node_at;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  Obs.Counter.bump cuts;
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

let run regioned ~lbts ~subgraph =
  let region = match subgraph with id :: _ -> regioned.Region.region_of.(id) | [] -> 0 in
  let ids = Region.slots regioned region in
  let slot_of = Hashtbl.create (Array.length ids) in
  Array.iteri (fun s id -> Hashtbl.replace slot_of id s) ids;
  let subgraph = List.map (Hashtbl.find slot_of) subgraph in
  Cut.relabel (Array.get ids) (cut (Region.shape regioned region) ~lbts ~subgraph)
