open Fhe_ir

type t = {
  dfg : Dfg.t;
  region_of : int array;
  regions : int array array;
  count : int;
  region_muls : int list array;
  mul_cc : bool array;
  mul_cp : bool array;
}

let build ?(sink = true) dfg =
  (match Dfg.validate dfg with
  | Ok () -> ()
  | Error (msg :: _) -> invalid_arg ("Region.build: " ^ msg)
  | Error [] -> assert false);
  let order = Dfg.topo_order dfg in
  let n = Dfg.node_count dfg in
  let depth = Depth.per_node dfg in
  let region_of = Array.make n 0 in
  (* Forward pass: multiplications anchor at their depth; everything else
     at the latest predecessor's region. *)
  List.iter
    (fun id ->
      let node = Dfg.node dfg id in
      if Op.is_mul node.Dfg.kind then region_of.(id) <- depth.(id)
      else
        region_of.(id) <-
          Array.fold_left (fun acc a -> max acc region_of.(a)) 0 node.Dfg.args)
    order;
  (* Backward pass: sink each node to the latest region its users allow.
     Multiplications of region j consume operands from region j-1 at the
     latest; non-multiplications admit same-region operands. *)
  if sink then
  List.iter
    (fun id ->
      let node = Dfg.node dfg id in
      match node.Dfg.kind with
      | Op.Input _ -> ()
      | _ -> (
          let users = Dfg.succs dfg id in
          match users with
          | [] -> ()
          | _ ->
              let allowance u =
                let r = region_of.(u) in
                if Op.is_mul (Dfg.node dfg u).Dfg.kind then r - 1 else r
              in
              let latest =
                List.fold_left (fun acc u -> min acc (allowance u)) max_int users
              in
              if latest > region_of.(id) then region_of.(id) <- latest))
    (List.rev order);
  let count = 1 + List.fold_left (fun acc id -> max acc region_of.(id)) 0 order in
  let buckets = Array.make count [] in
  List.iter (fun id -> buckets.(region_of.(id)) <- id :: buckets.(region_of.(id))) order;
  let regions = Array.map (fun ids -> Array.of_list (List.rev ids)) buckets in
  let kind id = (Dfg.node dfg id).Dfg.kind in
  let region_muls =
    Array.map (fun ids -> List.filter (fun id -> Op.is_mul (kind id)) (Array.to_list ids)) regions
  in
  let has k = Array.map (List.exists (fun id -> kind id = k)) region_muls in
  {
    dfg;
    region_of;
    regions;
    count;
    region_muls;
    mul_cc = has Op.Mul_cc;
    mul_cp = has Op.Mul_cp;
  }

let members t r =
  if r < 0 || r >= t.count then invalid_arg "Region.members";
  t.regions.(r)

let ct_members t r =
  Array.to_list (members t r)
  |> List.filter (fun id -> Op.produces_ct (Dfg.node t.dfg id).Dfg.kind)

let muls t r = t.region_muls.(r)
let has_mul_cc t r = t.mul_cc.(r)
let has_mul_cp t r = t.mul_cp.(r)

let live_out t r =
  let outs = Dfg.outputs t.dfg in
  ct_members t r
  |> List.filter (fun id ->
         List.mem id outs
         || List.exists (fun u -> t.region_of.(u) <> r) (Dfg.succs t.dfg id))

let pp ppf t =
  Format.fprintf ppf "@[<v>regioned dfg: %d regions" t.count;
  for r = 0 to t.count - 1 do
    Format.fprintf ppf "@,  R%d: %s" r
      (String.concat " "
         (List.map
            (fun id -> Printf.sprintf "%%%d:%s" id (Op.name (Dfg.node t.dfg id).Dfg.kind))
            (Array.to_list t.regions.(r))))
  done;
  Format.fprintf ppf "@]"
