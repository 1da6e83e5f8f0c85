open Fhe_ir

let cuts = Obs.Counter.make "btsplc.cuts"

let cut ?(fuel = Fuel.unlimited) (shape : Region.shape) ~lbts ~subgraph =
  Fuel.spend fuel;
  if lbts < 1 then invalid_arg "Btsplc.run: bootstrap target below 1";
  if subgraph = [] then invalid_arg "Btsplc.run: empty subgraph";
  let slots = shape.Region.slots in
  let index = Array.make (Array.length slots) (-1) in
  List.iteri (fun i s -> index.(s) <- i) subgraph;
  let in_sub s = index.(s) >= 0 in
  let k = List.length subgraph in
  let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
  let bts_cost s = float_of_int slots.(s).Region.freq *. unit_cost in
  let internal_succs s = List.filter in_sub slots.(s).Region.succs in
  let is_sink s = internal_succs s = [] in
  (* In-region successors are the only ones a shape names; any other
     consumer makes the slot live-out. *)
  let is_liveout s =
    slots.(s).Region.live_out
    || List.exists (fun u -> not (in_sub u)) slots.(s).Region.succs
  in
  (* Cumulative increase of running a node and its in-subgraph successors
     at l_bts instead of level 0 (Algorithm 5, lines 5-10, reverse topo). *)
  let linc = Array.make k 0.0 in
  List.iter
    (fun s ->
      if not (is_sink s) then
        linc.(index.(s)) <-
          List.fold_left
            (fun acc m -> acc +. linc.(index.(m)))
            (Smoplc.cost_of slots.(s) ~level:lbts -. Smoplc.cost_of slots.(s) ~level:0)
            (internal_succs s))
    (List.rev subgraph);
  (* External ciphertext producers feeding the subgraph.  A bootstrap on a
     boundary edge is inserted once after the producer and serves every
     head it feeds, so each producer becomes one flow node whose
     source-side arc carries the full (grouped) insertion cost. *)
  let external_preds s =
    List.filter
      (fun p -> Op.produces_ct slots.(p).Region.kind && not (in_sub p))
      slots.(s).Region.preds
  in
  let producers = Hashtbl.create 8 in
  (* producer slot -> (flow node, heads) *)
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
  (* Source-side arcs through the producer nodes, in producer-slot order:
     arc insertion order steers the augmenting-path search, so bucket
     order would leak into min-cut tie-breaks. *)
  Det.iter_sorted
    (fun p (fn, heads) ->
      let share =
        List.fold_left
          (fun acc h ->
            let indeg =
              List.length (external_preds h)
              + List.length (List.filter in_sub slots.(h).Region.preds)
            in
            acc +. (linc.(index.(h)) /. float_of_int (max indeg 1)))
          0.0 heads
      in
      Maxflow_util.add_with_reverse net ~src:s ~dst:fn ~cap:(bts_cost p +. share);
      List.iter
        (fun h -> Graphlib.Maxflow.add_edge net ~src:fn ~dst:index.(h) ~cap:infinity)
        heads)
    producers;
  List.iter
    (fun sl ->
      let i = index.(sl) in
      let int_preds = List.filter in_sub slots.(sl).Region.preds in
      let indeg = List.length (external_preds sl) + List.length int_preds in
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
        int_preds;
      (* Baseline: bootstrap after the live-out producers (region end). *)
      if is_sink sl || is_liveout sl then
        Maxflow_util.add_with_reverse net ~src:i ~dst:t ~cap:(bts_cost sl))
    subgraph;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  Obs.Counter.bump cuts;
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
  Array.iteri (fun i s -> node_of.(i) <- s) node_at;
  Det.iter_sorted (fun p (fn, _) -> node_of.(fn) <- p) producers;
  { Cut.edges; value = mc.Graphlib.Maxflow.value; sink_side; cert = Some cert; node_of }

let run ?fuel regioned ~lbts ~subgraph =
  let region = match subgraph with id :: _ -> regioned.Region.region_of.(id) | [] -> 0 in
  let ids = Region.slots regioned region in
  let slot_of = Hashtbl.create (Array.length ids) in
  Array.iteri (fun s id -> Hashtbl.replace slot_of id s) ids;
  let subgraph = List.map (Hashtbl.find slot_of) subgraph in
  Cut.relabel (Array.get ids) (cut ?fuel (Region.shape regioned region) ~lbts ~subgraph)
