let per_node ?order g =
  let depth = Array.make (Dfg.node_count g) 0 in
  let set id =
    let node = Dfg.node g id in
    let from_args = Array.fold_left (fun acc a -> max acc depth.(a)) 0 node.Dfg.args in
    depth.(id) <- (if Op.is_mul node.Dfg.kind then from_args + 1 else from_args)
  in
  (match order with Some o -> Array.iter set o | None -> List.iter set (Dfg.topo_order g));
  depth

(* Dead nodes read 0, below every live depth. *)
let max_depth ?order g = Array.fold_left max 0 (per_node ?order g)
