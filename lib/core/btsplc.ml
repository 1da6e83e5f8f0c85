open Fhe_ir

let cuts = Obs.Counter.make "btsplc.cuts"

(* What refills an arc's capacity at a target: the grouped insertion cost
   of an external producer (by slot), the bootstrap before a flow node
   shared over its in-degree, the region-end bootstrap after a flow node,
   or nothing (an infinite arc). *)
type weight = Fixed | Producer of int | Into of int | Out of int

(* The target-independent half of Algorithm 5: everything about the
   network of a shape's level-0 subgraph except its capacities.  Subgraph
   member [i] is flow node [i]; the super-source is [k], the super-sink
   [k + 1], and each external ciphertext producer gets one flow node past
   them, in first-read order.  An arc is infinite exactly when its head is
   a [Relin], its tail a [Mul_cc] or its head has no inputs at all, none
   of which depends on the target, so the topology is fixed and a target
   only refills the capacities. *)
type template = {
  slots : Region.slot array;
  node_at : int array;  (* flow node -> slot, topological *)
  succs : int array array;  (* in-subgraph successors as flow nodes, slot-list order *)
  indeg : int array;  (* external producers plus in-subgraph predecessors *)
  heads_of : int list array;  (* producer slot -> the flow nodes reading it, latest first *)
  node_of : int array;  (* flow node -> slot; producer nodes map to the producer *)
  net : Graphlib.Maxflow.t;
  weights : weight array;  (* by arc, in insertion order *)
}

let template (shape : Region.shape) ~subgraph =
  let slots = shape.Region.slots in
  let node_at = Array.of_list subgraph in
  let k = Array.length node_at in
  (* [index.(s)]: slot [s]'s flow node, or -1 outside the subgraph. *)
  let index = Array.make (Array.length slots) (-1) in
  Array.iteri (fun i s -> index.(s) <- i) node_at;
  let in_sub s = index.(s) >= 0 in
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
  let indeg =
    Array.init k (fun i ->
        List.length external_preds.(i) + List.length internal_preds.(i))
  in
  (* In-region successors are the only ones a shape names; any other
     consumer makes the slot live-out. *)
  let is_liveout s =
    slots.(s).Region.live_out
    || List.exists (fun u -> not (in_sub u)) slots.(s).Region.succs
  in
  (* A bootstrap on a boundary edge is inserted once after the producer
     and serves every head it feeds, so each producer becomes one flow
     node whose source-side arc carries the full (grouped) insertion
     cost. *)
  let flow_of = Array.make (Array.length slots) (-1) in
  let heads_of = Array.make (Array.length slots) [] in
  let next_flow = ref (k + 2) in
  Array.iteri
    (fun i ps ->
      List.iter
        (fun p ->
          if flow_of.(p) < 0 then begin
            flow_of.(p) <- !next_flow;
            incr next_flow
          end;
          heads_of.(p) <- i :: heads_of.(p))
        ps)
    external_preds;
  let net = Graphlib.Maxflow.create !next_flow in
  let s = k and t = k + 1 in
  let weights = ref [] in
  let arc src dst w =
    weights := w :: !weights;
    match w with
    | Fixed -> Graphlib.Maxflow.add_edge net ~src ~dst ~cap:infinity
    | Producer _ | Into _ | Out _ ->
        (* A finite arc's infinite reverse keeps the source side closed
           under predecessors. *)
        Graphlib.Maxflow.add_edge net ~src ~dst ~cap:0.0;
        Graphlib.Maxflow.add_edge net ~src:dst ~dst:src ~cap:infinity;
        weights := Fixed :: !weights
  in
  (* Source-side arcs through the producer nodes, in ascending producer
     slot order: arc insertion order steers the augmenting-path search,
     so it must be a function of the shape alone. *)
  Array.iteri
    (fun p fn ->
      if fn >= 0 then begin
        arc s fn (Producer p);
        List.iter (fun h -> arc fn h Fixed) heads_of.(p)
      end)
    flow_of;
  Array.iteri
    (fun i sl ->
      (* Entry nodes with no inputs at all still anchor to the source so
         their downstream paths get covered. *)
      if indeg.(i) = 0 then arc s i Fixed;
      List.iter
        (fun p ->
          (* never separate a relin from its multiplication *)
          let w =
            if slots.(p).Region.kind = Op.Mul_cc || slots.(sl).Region.kind = Op.Relin then Fixed
            else Into i
          in
          arc index.(p) i w)
        internal_preds.(i);
      (* Baseline: bootstrap after the live-out producers (region end). *)
      if internal_succs.(i) = [] || is_liveout sl then arc i t (Out i))
    node_at;
  let node_of = Array.make !next_flow (-1) in
  Array.blit node_at 0 node_of 0 k;
  Array.iteri (fun p fn -> if fn >= 0 then node_of.(fn) <- p) flow_of;
  {
    slots;
    node_at;
    succs = Array.map (fun l -> Array.of_list (List.map (Array.get index) l)) internal_succs;
    indeg;
    heads_of;
    node_of;
    net;
    weights = Array.of_list (List.rev !weights);
  }

(* The target-dependent half: capacities from the Table 2 costs at [lbts]
   refilled into the template's network, then one Dinic run.  The
   certificate is deferred: built from the solve's snapshot on demand. *)
let solve_at tp ~lbts =
  let slots = tp.slots and node_at = tp.node_at in
  let k = Array.length node_at in
  let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
  let bts_cost s = float_of_int slots.(s).Region.freq *. unit_cost in
  (* Cumulative increase of running a node and its in-subgraph successors
     at l_bts instead of level 0 (Algorithm 5, lines 5-10, reverse topo). *)
  let linc = Array.make k 0.0 in
  for i = k - 1 downto 0 do
    let s = node_at.(i) in
    let succs = tp.succs.(i) in
    if Array.length succs > 0 then
      linc.(i) <-
        Array.fold_left
          (fun acc m -> acc +. linc.(m))
          (Smoplc.cost_of slots.(s) ~level:lbts -. Smoplc.cost_of slots.(s) ~level:0)
          succs
  done;
  let refill e = function
    | Fixed -> ()
    | Producer p ->
        let share =
          List.fold_left
            (fun acc i -> acc +. (linc.(i) /. float_of_int (max tp.indeg.(i) 1)))
            0.0 tp.heads_of.(p)
        in
        Graphlib.Maxflow.set_capacity tp.net e (bts_cost p +. share)
    | Into i ->
        Graphlib.Maxflow.set_capacity tp.net e
          ((bts_cost node_at.(i) +. linc.(i)) /. float_of_int tp.indeg.(i))
    | Out i -> Graphlib.Maxflow.set_capacity tp.net e (bts_cost node_at.(i))
  in
  Array.iteri refill tp.weights;
  let s = k and t = k + 1 in
  let mc = Graphlib.Maxflow.min_cut tp.net ~source:s ~sink:t in
  (* The next target refills this network: keep what a certificate reads. *)
  let snapshot = Graphlib.Maxflow.snapshot tp.net in
  Obs.Counter.bump cuts;
  let edges =
    List.concat_map
      (fun (u, v) ->
        if u = s then
          if v >= k + 2 then
            (* Arc into a producer node: bootstrap its boundary edges. *)
            List.map
              (fun h -> Cut.Boundary_in { head = node_at.(h) })
              tp.heads_of.(tp.node_of.(v))
          else [ Cut.Boundary_in { head = node_at.(v) } ]
        else if v = t then [ Cut.Boundary_out { tail = node_at.(u) } ]
        else [ Cut.Internal { tail = node_at.(u); head = node_at.(v) } ])
      mc.Graphlib.Maxflow.edges
  in
  let sink_side = ref [] in
  for i = k - 1 downto 0 do
    if not mc.Graphlib.Maxflow.source_side.(i) then sink_side := node_at.(i) :: !sink_side
  done;
  Cut.defer
    {
      Cut.edges;
      value = mc.Graphlib.Maxflow.value;
      sink_side = !sink_side;
      cert = None;
      node_of = tp.node_of;
    }
    (fun () -> Graphlib.Maxflow.certificate ~snapshot tp.net ~source:s ~sink:t mc)

(* Per-compile memo: per shape, one entry per subgraph (a shape has a
   handful: its SMOPLC cuts' sink sides and its no-rescale subgraph), each
   with its template and its cuts by target. *)
type entry = { subgraph : int list; tp : template; by_target : (int, Cut.deferred) Hashtbl.t }
type memo = entry list Region.Shape_tbl.t

let create_memo () = Region.Shape_tbl.create 64

let solve ?memo shape ~lbts ~subgraph =
  if lbts < 1 then invalid_arg "Btsplc.run: bootstrap target below 1";
  if subgraph = [] then invalid_arg "Btsplc.run: empty subgraph";
  let fresh () = { subgraph; tp = template shape ~subgraph; by_target = Hashtbl.create 8 } in
  let e =
    match memo with
    | None -> fresh ()
    | Some m -> (
        let entries = Option.value ~default:[] (Region.Shape_tbl.find_opt m shape) in
        match List.find_opt (fun e -> e.subgraph == subgraph || e.subgraph = subgraph) entries with
        | Some e -> e
        | None ->
            let e = fresh () in
            Region.Shape_tbl.replace m shape (e :: entries);
            e)
  in
  match Hashtbl.find_opt e.by_target lbts with
  | Some c -> c
  | None ->
      let c = solve_at e.tp ~lbts in
      Hashtbl.add e.by_target lbts c;
      c

let cut ?memo shape ~lbts ~subgraph = Cut.certified (solve ?memo shape ~lbts ~subgraph)

let run regioned ~lbts ~subgraph =
  let region = match subgraph with id :: _ -> regioned.Region.region_of.(id) | [] -> 0 in
  let ids = Region.slots regioned region in
  (* Node id -> slot over the ids the region names. *)
  let lo = Array.fold_left Int.min max_int ids and hi = Array.fold_left Int.max (-1) ids in
  let slot_of = Array.make (Int.max 0 (hi - lo + 1)) (-1) in
  Array.iteri (fun s id -> slot_of.(id - lo) <- s) ids;
  let subgraph =
    List.map
      (fun id ->
        if id < lo || id > hi || slot_of.(id - lo) < 0 then raise Not_found;
        slot_of.(id - lo))
      subgraph
  in
  Cut.relabel (Array.get ids) (cut (Region.shape regioned region) ~lbts ~subgraph)
