type t = {
  nodes : int;
  static_by_op : (Ckks.Cost_model.op * int) list;
  executed_by_op : (Ckks.Cost_model.op * int) list;
  executed_rescales : int;
  executed_modswitches : int;
  bootstrap_count : int;
  bootstrap_levels : (int * int) list;
  max_depth : int;
}

let collect ?order g =
  let nops = List.length Ckks.Cost_model.all_ops in
  let static = Array.make nops 0 and executed = Array.make nops 0 in
  let bts_targets = ref [] and nodes = ref 0 in
  for id = 0 to Dfg.node_count g - 1 do
    let n = Dfg.node g id in
    if not n.Dfg.dead then begin
      incr nodes;
      (match Op.cost_op n.Dfg.kind with
      | None -> ()
      | Some op ->
          let i = Ckks.Cost_model.index op in
          static.(i) <- static.(i) + 1;
          executed.(i) <- executed.(i) + n.Dfg.freq);
      match n.Dfg.kind with
      | Op.Bootstrap target -> bts_targets := target :: !bts_targets
      | _ -> ()
    end
  done;
  (* Ops that occur, in [all_ops] order.  An op occurs when it has a
     live node, even if its executed count sums to 0. *)
  let dump table =
    List.filter_map
      (fun op ->
        let i = Ckks.Cost_model.index op in
        if static.(i) > 0 then Some (op, table.(i)) else None)
      Ckks.Cost_model.all_ops
  in
  let get table op = table.(Ckks.Cost_model.index op) in
  (* Bootstrap counts by target level, highest first: a run-length pass
     over the sorted targets (a graph has few bootstraps, and a
     malformed one may carry any target). *)
  let bootstrap_levels =
    List.fold_left
      (fun acc t ->
        match acc with
        | (l, c) :: rest when l = t -> (l, c + 1) :: rest
        | _ -> (t, 1) :: acc)
      []
      (List.sort Int.compare !bts_targets)
  in
  {
    nodes = !nodes;
    static_by_op = dump static;
    executed_by_op = dump executed;
    executed_rescales = get executed Ckks.Cost_model.Rescale;
    executed_modswitches = get executed Ckks.Cost_model.Modswitch;
    bootstrap_count = get static Ckks.Cost_model.Bootstrap;
    bootstrap_levels;
    max_depth = Depth.max_depth ?order g;
  }

let executed t op =
  Option.value (List.assoc_opt op t.executed_by_op) ~default:0

let pp ppf t =
  Format.fprintf ppf "@[<v>%d nodes, depth %d" t.nodes t.max_depth;
  List.iter
    (fun (op, c) ->
      Format.fprintf ppf "@,  %-16s static %6d  executed %8d" (Ckks.Cost_model.op_name op)
        (Option.value (List.assoc_opt op t.static_by_op) ~default:0)
        c)
    t.executed_by_op;
  if t.bootstrap_levels <> [] then begin
    Format.fprintf ppf "@,  bootstrap levels:";
    List.iter (fun (l, c) -> Format.fprintf ppf " L%d:%d" l c) t.bootstrap_levels
  end;
  Format.fprintf ppf "@]"
