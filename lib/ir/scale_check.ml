type info = { scale_bits : int; level : int; is_ct : bool }

type violation = { node : int; message : string }

let pp_violation ppf v = Format.fprintf ppf "node %d: %s" v.node v.message

let dummy = { scale_bits = 0; level = 0; is_ct = false }

(* The ciphertext operand of a ct x pt operation.  Well-formed graphs keep
   it in slot 0; on malformed graphs (lenient analysis of a partially
   rewritten DFG) fall back to whichever slot carries a ciphertext so the
   constant's [max_int] level sentinel never leaks into downstream level
   arithmetic. *)
let ct_operand info (node : Dfg.node) =
  let a = info.(node.args.(0)) in
  if a.is_ct then a
  else
    let b = info.(node.args.(1)) in
    if b.is_ct then b else a

(* Join level of a binary ct operation, from ct operands only. *)
let join_level a b =
  match (a.is_ct, b.is_ct) with
  | true, true -> min a.level b.level
  | true, false -> a.level
  | false, true -> b.level
  | false, false -> 0

(* [a] itself when it already is the ciphertext point (scale_bits, level):
   most ops keep their operand's point, and sharing it keeps a fold from
   allocating one record per node. *)
let ct_point a scale_bits level =
  if a.is_ct && a.scale_bits = scale_bits && a.level = level then a
  else { scale_bits; level; is_ct = true }

(* Table 1, lenient: levels and scales clamp instead of failing. *)
let transfer (prm : Ckks.Params.t) info (node : Dfg.node) =
  let q = prm.scale_bits and qw = prm.waterline_bits in
  let arg k = info.(node.args.(k)) in
  match node.kind with
  | Op.Input { level; scale_bits; _ } ->
      {
        scale_bits = Option.value scale_bits ~default:prm.input_scale_bits;
        level = Option.value level ~default:prm.input_level;
        is_ct = true;
      }
  | Op.Const _ ->
      (* Scale filled in by consumers; default to waterline. *)
      { scale_bits = qw; level = max_int; is_ct = false }
  | Op.Add_cc ->
      let a = ct_operand info node in
      ct_point a a.scale_bits (join_level (arg 0) (arg 1))
  | Op.Add_cp ->
      let a = ct_operand info node in
      ct_point a a.scale_bits a.level
  | Op.Mul_cc ->
      let a = arg 0 and b = arg 1 in
      { scale_bits = a.scale_bits + b.scale_bits; level = join_level a b; is_ct = true }
  | Op.Mul_cp ->
      let a = ct_operand info node in
      { scale_bits = a.scale_bits + qw; level = a.level; is_ct = true }
  | Op.Rotate _ | Op.Relin ->
      let a = arg 0 in
      ct_point a a.scale_bits a.level
  | Op.Rescale ->
      let a = arg 0 in
      { scale_bits = max (a.scale_bits - q) 1; level = max (a.level - 1) 0; is_ct = true }
  | Op.Modswitch ->
      let a = arg 0 in
      { a with level = max (a.level - 1) 0 }
  | Op.Bootstrap target -> { scale_bits = q; level = target; is_ct = true }

(* [transfer] folded over the topological order.  In strict mode every
   constraint violation is recorded; in lenient mode propagation continues
   with clamped values so planners can inspect partial graphs. *)
let analyse ?order ~strict (prm : Ckks.Params.t) g =
  let n = Dfg.node_count g in
  let info = Array.make n dummy in
  let violations = ref [] in
  let report id fmt =
    Format.kasprintf (fun message -> violations := { node = id; message } :: !violations) fmt
  in
  let q = prm.scale_bits and qw = prm.waterline_bits in
  (* Constant scales are decided by their consumers; resolve each constant
     from its ciphertext-bearing uses and verify they agree.  Conflicting
     demands resolve to the smallest wanted scale so the result is a
     function of the graph, not of node numbering (the topological order
     visits consumers in id-dependent order).  Only genuine [Const] nodes
     enter the table: on malformed graphs a plaintext slot can hold a
     ciphertext, and back-patching that node would clobber its inferred
     level with the [max_int] constant sentinel. *)
  let const_scale = Hashtbl.create 16 in
  let resolve_const id ~wanted ~user =
    match (Dfg.node g id).Dfg.kind with
    | Op.Const _ -> (
        match Hashtbl.find_opt const_scale id with
        | None -> Hashtbl.add const_scale id wanted
        | Some s when s = wanted -> ()
        | Some s ->
            if strict then
              report id "constant needs two encoding scales (2^%d for node %d, already 2^%d)"
                wanted user s;
            if wanted < s then Hashtbl.replace const_scale id wanted)
    | _ -> () (* ciphertext in a plaintext slot: Dfg.validate reports it *)
  in
  let fits i = Ckks.Evaluator.capacity_ok prm ~scale_bits:i.scale_bits ~level:i.level in
  let check id (node : Dfg.node) i =
    let arg k = info.(node.args.(k)) in
    match node.kind with
    | Op.Input _ ->
        if not (fits i) then
          report id "input scale 2^%d overflows capacity at level %d" i.scale_bits i.level
    | Op.Add_cc ->
        let a = arg 0 and b = arg 1 in
        if a.level <> b.level then
          report id "add_cc level mismatch (L%d vs L%d)" a.level b.level;
        if a.scale_bits <> b.scale_bits then
          report id "add_cc scale mismatch (2^%d vs 2^%d)" a.scale_bits b.scale_bits
    | Op.Mul_cc ->
        let a = arg 0 and b = arg 1 in
        if a.level <> b.level then
          report id "mul_cc level mismatch (L%d vs L%d)" a.level b.level;
        if not (fits i) then
          report id "mul_cc scale overflow (2^%d at level %d)" i.scale_bits i.level
    | Op.Mul_cp ->
        if not (fits i) then
          report id "mul_cp scale overflow (2^%d at level %d)" i.scale_bits i.level
    | Op.Rescale ->
        let a = arg 0 in
        if a.level < 1 then report id "rescale at level %d" a.level;
        if a.scale_bits < q + qw then
          report id "rescale of scale 2^%d below q*q_w = 2^%d" a.scale_bits (q + qw)
    | Op.Modswitch ->
        if (arg 0).level < 1 then report id "modswitch at level %d" (arg 0).level;
        if not (fits i) then
          report id "modswitch would overflow capacity (2^%d at level %d)" i.scale_bits
            i.level
    | Op.Bootstrap target ->
        if target < 1 || target > prm.l_max then
          report id "bootstrap target %d outside [1, %d]" target prm.l_max
    | Op.Const _ | Op.Add_cp | Op.Rotate _ | Op.Relin -> ()
  in
  let in_order f =
    match order with Some o -> Array.iter f o | None -> List.iter f (Dfg.topo_order g)
  in
  in_order
    (fun id ->
      let node = Dfg.node g id in
      let i = transfer prm info node in
      (match node.kind with
      | Op.Add_cp ->
          Array.iter (fun c -> resolve_const c ~wanted:i.scale_bits ~user:id) node.args
      | Op.Mul_cp -> Array.iter (fun c -> resolve_const c ~wanted:qw ~user:id) node.args
      | _ -> ());
      if strict then check id node i;
      info.(id) <- i);
  (* Back-patch the resolved constant scales.  Only [Const] nodes are in
     the table, so the [max_int] level sentinel stays confined to
     plaintexts ([is_ct = false] entries). *)
  Hashtbl.iter (* det-ok: independent per-key array writes *)
    (fun id scale_bits -> info.(id) <- { info.(id) with scale_bits })
    const_scale;
  (info, List.rev !violations)

let run ?order prm g =
  (* One sort both proves the graph acyclic and orders the analysis; a
     cyclic graph has none, and [Dfg.validate]'s cycle check names it. *)
  let order =
    match order with
    | Some _ -> order
    | None -> (
        match Dfg.topo_order g with
        | o -> Some (Array.of_list o)
        | exception Dfg.Cycle _ -> None)
  in
  match Dfg.validate ~acyclic:(Option.is_some order) g with
  | Error msgs -> Error (List.map (fun m -> { node = -1; message = m }) msgs)
  | Ok () -> (
      let info, violations = analyse ?order ~strict:true prm g in
      match violations with [] -> Ok info | vs -> Error vs)

let infer ?order prm g = fst (analyse ?order ~strict:false prm g)
