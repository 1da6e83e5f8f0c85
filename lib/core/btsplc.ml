open Fhe_ir

let op_cost g ~level id =
  let node = Dfg.node g id in
  match Op.cost_op node.Dfg.kind with
  | None -> 0.0
  | Some op -> float_of_int node.Dfg.freq *. Ckks.Cost_model.cost op ~level

let run ?(fuel = Fuel.unlimited) regioned prm ~region ~lbts ~subgraph =
  Fuel.spend fuel;
  ignore region;
  if lbts < 1 then invalid_arg "Btsplc.run: bootstrap target below 1";
  if subgraph = [] then invalid_arg "Btsplc.run: empty subgraph";
  ignore prm;
  let g = regioned.Region.dfg in
  let index = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.add index id i) subgraph;
  let in_sub id = Hashtbl.mem index id in
  let k = List.length subgraph in
  let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
  let bts_cost id = float_of_int (Dfg.node g id).Dfg.freq *. unit_cost in
  let internal_succs id = List.filter in_sub (Dfg.succs g id) in
  let is_sink id = internal_succs id = [] in
  let is_liveout id =
    List.mem id (Dfg.outputs g)
    || List.exists (fun u -> not (in_sub u)) (Dfg.succs g id)
  in
  (* Cumulative increase of running a node and its in-subgraph successors
     at l_bts instead of level 0 (Algorithm 5, lines 5-10, reverse topo). *)
  let linc = Hashtbl.create 32 in
  List.iter
    (fun id ->
      let v =
        if is_sink id then 0.0
        else
          let own = op_cost g ~level:lbts id -. op_cost g ~level:0 id in
          List.fold_left
            (fun acc m -> acc +. Option.value (Hashtbl.find_opt linc m) ~default:0.0)
            own (internal_succs id)
      in
      Hashtbl.add linc id v)
    (List.rev subgraph);
  (* External ciphertext producers feeding the subgraph.  A bootstrap on a
     boundary edge is inserted once after the producer and serves every
     head it feeds, so each producer becomes one flow node whose
     source-side arc carries the full (grouped) insertion cost. *)
  let external_preds id =
    List.filter
      (fun p -> Op.produces_ct (Dfg.node g p).Dfg.kind && not (in_sub p))
      (Dfg.preds g id)
  in
  let producers = Hashtbl.create 8 in
  (* producer id -> (flow node, heads) *)
  let next_flow = ref (k + 2) in
  List.iter
    (fun h ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt producers p with
          | Some (fn, heads) -> Hashtbl.replace producers p (fn, h :: heads)
          | None ->
              Hashtbl.add producers p (!next_flow, [ h ]);
              incr next_flow)
        (external_preds h))
    subgraph;
  let net = Graphlib.Maxflow.create !next_flow in
  let s = k and t = k + 1 in
  (* Source-side arcs through the producer nodes, in producer-id order:
     arc insertion order steers the augmenting-path search, so bucket
     order would leak into min-cut tie-breaks. *)
  Det.iter_sorted
    (fun p (fn, heads) ->
      let share =
        List.fold_left
          (fun acc h ->
            let indeg =
              List.length (external_preds h)
              + List.length (List.filter in_sub (Dfg.preds g h))
            in
            acc +. (Hashtbl.find linc h /. float_of_int (max indeg 1)))
          0.0 heads
      in
      Maxflow_util.add_with_reverse net ~src:s ~dst:fn ~cap:(bts_cost p +. share);
      List.iter
        (fun h -> Graphlib.Maxflow.add_edge net ~src:fn ~dst:(Hashtbl.find index h) ~cap:infinity)
        heads)
    producers;
  List.iter
    (fun id ->
      let i = Hashtbl.find index id in
      let int_preds = List.filter in_sub (Dfg.preds g id) in
      let indeg = List.length (external_preds id) + List.length int_preds in
      (* Entry nodes with no inputs at all still anchor to the source so
         their downstream paths get covered. *)
      if indeg = 0 then Maxflow_util.add_with_reverse net ~src:s ~dst:i ~cap:infinity;
      let weight_in =
        if indeg = 0 then infinity
        else if (Dfg.node g id).Dfg.kind = Op.Relin then infinity
          (* never separate a relin from its multiplication *)
        else (bts_cost id +. Hashtbl.find linc id) /. float_of_int indeg
      in
      List.iter
        (fun p ->
          let wp = if (Dfg.node g p).Dfg.kind = Op.Mul_cc then infinity else weight_in in
          Maxflow_util.add_with_reverse net ~src:(Hashtbl.find index p) ~dst:i ~cap:wp)
        int_preds;
      (* Baseline: bootstrap after the live-out producers (region end). *)
      if is_sink id || is_liveout id then
        Maxflow_util.add_with_reverse net ~src:i ~dst:t ~cap:(bts_cost id))
    subgraph;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  Obs.incr "btsplc.cuts";
  Obs.observe "btsplc.cut_value" mc.Graphlib.Maxflow.value;
  Obs.observe "btsplc.subgraph_nodes" (float_of_int k);
  let node_at = Array.of_list subgraph in
  let producer_heads = Hashtbl.create 8 in
  Det.iter_sorted (fun _ (fn, heads) -> Hashtbl.add producer_heads fn heads) producers;
  let edges =
    List.concat_map
      (fun (u, v) ->
        if u = s then
          (* Arc into a producer node: bootstrap its boundary edges. *)
          match Hashtbl.find_opt producer_heads v with
          | Some heads -> List.map (fun h -> Cut.Boundary_in { head = h }) heads
          | None -> [ Cut.Boundary_in { head = node_at.(v) } ]
        else if v = t then [ Cut.Boundary_out { tail = node_at.(u) } ]
        else [ Cut.Internal { tail = node_at.(u); head = node_at.(v) } ])
      mc.Graphlib.Maxflow.edges
  in
  let sink_side =
    List.filteri (fun i _ -> not mc.Graphlib.Maxflow.source_side.(i)) subgraph
  in
  let node_of = Array.make !next_flow (-1) in
  Array.iteri (fun i id -> node_of.(i) <- id) node_at;
  Det.iter_sorted (fun p (fn, _) -> node_of.(fn) <- p) producers;
  { Cut.edges; value = mc.Graphlib.Maxflow.value; sink_side; cert = Some cert; node_of }
