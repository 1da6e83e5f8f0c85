(* Levels after legalisation equal the lenient analysis' min-rule levels,
   so a single pass over the topological order with those levels is
   sufficient: inserted modswitch chains only affect the edges they are
   placed on, and every level read is of a node that predates the pass. *)
let run prm g ~levels ~order =
  (* Shared modswitch chains: (source node, target level) -> chain head. *)
  let cache = Hashtbl.create 16 in
  let rec lower id target =
    if levels.(id) <= target then id
    else
      match Hashtbl.find_opt cache (id, target) with
      | Some c -> c
      | None ->
          let step = lower id (target + 1) in
          let ms = Dfg.insert_after g ~tail:step ~heads:[] Op.Modswitch in
          Hashtbl.add cache (id, target) ms;
          ms
  in
  List.iter
    (fun id ->
      let node = Dfg.node g id in
      match node.Dfg.kind with
      | Op.Add_cc | Op.Mul_cc ->
          let a = node.Dfg.args.(0) and b = node.Dfg.args.(1) in
          let la = levels.(a) and lb = levels.(b) in
          if la <> lb then begin
            let target = min la lb in
            if la > target then Dfg.set_arg g ~user:id ~arg_index:0 (lower a target)
            else Dfg.set_arg g ~user:id ~arg_index:1 (lower b target)
          end
      | _ -> ())
    order;
  (* The closing validation doubles as the caller's scale/level analysis
     and its sort as the managed graph's order: return both so Driver and
     Plan need neither re-infer nor re-sort.  Modswitch chains on edges
     keep a sorted graph acyclic. *)
  let order = Array.of_list (Dfg.topo_order g) in
  Result.map (fun info -> (info, order)) (Scale_check.run ~order prm g)
