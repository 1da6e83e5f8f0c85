let charge_level (g : Dfg.t) (info : Scale_check.info array) id =
  let node = Dfg.node g id in
  match node.Dfg.kind with
  | Op.Bootstrap target -> target
  | _ ->
      if Array.length node.Dfg.args = 0 then 0
      else
        (* Charge at the ciphertext operand's level. *)
        Array.fold_left
          (fun acc a -> if info.(a).Scale_check.is_ct then max acc info.(a).level else acc)
          0 node.Dfg.args

let node_cost _prm g info id =
  let node = Dfg.node g id in
  match Op.cost_op node.Dfg.kind with
  | None -> 0.0
  | Some op ->
      let level = charge_level g info id in
      float_of_int node.Dfg.freq *. Ckks.Cost_model.cost op ~level

let infer_or ~info prm g =
  match info with Some i -> i | None -> Scale_check.infer prm g

let total ?info prm g =
  let info = infer_or ~info prm g in
  List.fold_left (fun acc n -> acc +. node_cost prm g info n.Dfg.id) 0.0 (Dfg.live_nodes g)

let by_kind ?info prm g =
  let info = infer_or ~info prm g in
  let table = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match Op.cost_op n.Dfg.kind with
      | None -> ()
      | Some op ->
          let c = node_cost prm g info n.Dfg.id in
          let cur = Option.value (Hashtbl.find_opt table op) ~default:0.0 in
          Hashtbl.replace table op (cur +. c))
    (Dfg.live_nodes g);
  List.filter_map
    (fun op -> Option.map (fun c -> (op, c)) (Hashtbl.find_opt table op))
    Ckks.Cost_model.all_ops
