open Fhe_ir

type slot = {
  kind : Op.kind;
  freq : int;
  preds : int list;
  succs : int list;
  live_out : bool;
}

type shape = { members : int; slots : slot array; hash : int }

module Shape = struct
  type t = shape

  (* [compare] short-cuts on physical equality, which interned shapes of
     one regioned DFG always have; shapes hold no floats, so [compare = 0]
     is structural equality. *)
  let equal a b = a == b || (a.hash = b.hash && compare a b = 0)
  let hash s = s.hash
end

module Shape_tbl = Hashtbl.Make (Shape)

type t = {
  dfg : Dfg.t;
  region_of : int array;
  regions : int array array;
  count : int;
  region_muls : int list array;
  mul_cc : bool array;
  mul_cp : bool array;
  shapes : shape array;
  shape_ids : int array;
  slot_ids : int array array;
}

(* Names label values, not structure: two regions that differ only in
   which input or weight they read solve identically. *)
let erase_names = function
  | Op.Input { level; scale_bits; _ } -> Op.Input { name = ""; level; scale_bits }
  | Op.Const _ -> Op.Const { name = "" }
  | k -> k

(* Every region's shape and slot -> node id map.  Slots are the members in
   topological order, then the external producers the members read, in
   ascending id order.  Equal shapes are interned, so regions repeating
   one block share one physical shape and one dense index. *)
let shapes_of dfg region_of regions =
  let outputs = Array.make (Array.length region_of) false in
  List.iter (fun o -> outputs.(o) <- true) (Dfg.outputs dfg);
  let slot_of = Array.make (Array.length region_of) (-1) in
  let interned = Shape_tbl.create 64 in
  let shape_ids = Array.make (Array.length regions) 0 in
  let per_region =
    Array.mapi
      (fun r members ->
        Array.iteri (fun i id -> slot_of.(id) <- i) members;
        let preds = Array.map (Dfg.preds dfg) members in
        let external_ =
          Array.fold_left
            (fun acc ps -> List.filter (fun p -> region_of.(p) <> r) ps @ acc)
            [] preds
          |> List.sort_uniq compare
        in
        let n = Array.length members in
        List.iteri (fun j p -> slot_of.(p) <- n + j) external_;
        let ids = Array.append members (Array.of_list external_) in
        let slots =
          Array.mapi
            (fun i id ->
              let node = Dfg.node dfg id in
              let kind = erase_names node.Dfg.kind and freq = node.Dfg.freq in
              if i >= n then { kind; freq; preds = []; succs = []; live_out = false }
              else
                let succs = Dfg.succs dfg id in
                {
                  kind;
                  freq;
                  preds = List.map (fun p -> slot_of.(p)) preds.(i);
                  succs =
                    List.filter_map
                      (fun u -> if region_of.(u) = r then Some slot_of.(u) else None)
                      succs;
                  live_out = outputs.(id) || List.exists (fun u -> region_of.(u) <> r) succs;
                })
            ids
        in
        (* Kinds, freqs and live-out flags spread the shapes well enough
           and equality settles the rest: a structural hash of every slot
           cost about as much as the rest of the shape build. *)
        let hash =
          Array.fold_left
            (fun h s -> (h * 65599) + Hashtbl.hash s.kind + (31 * s.freq) + Bool.to_int s.live_out)
            n slots
          land max_int
        in
        let shape = { members = n; slots; hash } in
        let shape, index =
          match Shape_tbl.find_opt interned shape with
          | Some interned -> interned
          | None ->
              let index = Shape_tbl.length interned in
              Shape_tbl.add interned shape (shape, index);
              (shape, index)
        in
        shape_ids.(r) <- index;
        (shape, ids))
      regions
  in
  (Array.map fst per_region, shape_ids, Array.map snd per_region)

let build ?(sink = true) dfg =
  (* One sort both proves the graph acyclic and orders the passes below;
     a cyclic graph has none, and [Dfg.validate]'s cycle check names it. *)
  let order =
    match Dfg.topo_order dfg with o -> Some o | exception Dfg.Cycle _ -> None
  in
  (match Dfg.validate ~acyclic:(Option.is_some order) dfg with
  | Ok () -> ()
  | Error (msg :: _) -> invalid_arg ("Region.build: " ^ msg)
  | Error [] -> assert false);
  let order = Array.of_list (Option.get order) in
  let n = Dfg.node_count dfg in
  let depth = Depth.per_node ~order dfg in
  let region_of = Array.make n 0 in
  (* Forward pass: multiplications anchor at their depth; everything else
     at the latest predecessor's region. *)
  Array.iter
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
    for k = Array.length order - 1 downto 0 do
      let id = order.(k) in
      let node = Dfg.node dfg id in
      match (node.Dfg.kind, node.Dfg.users) with
      | Op.Input _, _ | _, [] -> ()
      | _, users ->
          (* A minimum: the use list's order does not matter. *)
          let allowance u =
            let r = region_of.(u) in
            if Op.is_mul (Dfg.node dfg u).Dfg.kind then r - 1 else r
          in
          let latest = List.fold_left (fun acc u -> min acc (allowance u)) max_int users in
          if latest > region_of.(id) then region_of.(id) <- latest
    done;
  let count = 1 + Array.fold_left (fun acc id -> max acc region_of.(id)) 0 order in
  let buckets = Array.make count [] in
  Array.iter (fun id -> buckets.(region_of.(id)) <- id :: buckets.(region_of.(id))) order;
  let regions = Array.map (fun ids -> Array.of_list (List.rev ids)) buckets in
  let kind id = (Dfg.node dfg id).Dfg.kind in
  let region_muls =
    Array.map (fun ids -> List.filter (fun id -> Op.is_mul (kind id)) (Array.to_list ids)) regions
  in
  let has k = Array.map (List.exists (fun id -> kind id = k)) region_muls in
  let shapes, shape_ids, slot_ids = shapes_of dfg region_of regions in
  {
    dfg;
    region_of;
    regions;
    count;
    region_muls;
    mul_cc = has Op.Mul_cc;
    mul_cp = has Op.Mul_cp;
    shapes;
    shape_ids;
    slot_ids;
  }

let members t r =
  if r < 0 || r >= t.count then invalid_arg "Region.members";
  t.regions.(r)

let ct_members t r =
  Array.to_list (members t r)
  |> List.filter (fun id -> Op.produces_ct (Dfg.node t.dfg id).Dfg.kind)

let shape t r = t.shapes.(r)
let slots t r = t.slot_ids.(r)
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
