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
  let static = Hashtbl.create 16 and executed = Hashtbl.create 16 in
  let bump table key k =
    Hashtbl.replace table key (k + Option.value (Hashtbl.find_opt table key) ~default:0)
  in
  let bts_levels = Hashtbl.create 8 in
  let nodes = ref 0 in
  List.iter
    (fun n ->
      incr nodes;
      (match Op.cost_op n.Dfg.kind with
      | None -> ()
      | Some op ->
          bump static op 1;
          bump executed op n.Dfg.freq);
      match n.Dfg.kind with
      | Op.Bootstrap target -> bump bts_levels target 1
      | _ -> ())
    (Dfg.live_nodes g);
  let dump table =
    List.filter_map
      (fun op -> Option.map (fun c -> (op, c)) (Hashtbl.find_opt table op))
      Ckks.Cost_model.all_ops
  in
  let get table op = Option.value (Hashtbl.find_opt table op) ~default:0 in
  {
    nodes = !nodes;
    static_by_op = dump static;
    executed_by_op = dump executed;
    executed_rescales = get executed Ckks.Cost_model.Rescale;
    executed_modswitches = get executed Ckks.Cost_model.Modswitch;
    bootstrap_count = get static Ckks.Cost_model.Bootstrap;
    bootstrap_levels =
      Hashtbl.fold (fun l c acc -> (l, c) :: acc) bts_levels [] (* det-ok: sorted *)
      |> List.sort (fun (a, _) (b, _) -> compare b a);
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
