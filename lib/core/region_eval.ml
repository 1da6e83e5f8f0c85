open Fhe_ir

let computes = Obs.Counter.make "region_eval.computes"

type smo_mode = Smo_min_cut | Smo_eva | Smo_pars
type bts_mode = Bts_min_cut | Bts_region_end

type result = {
  latency_ms : float;
  smo_cut : Cut.t option;
  bts_cut : Cut.t option;
  bts_subgraph : int list;
}

type key = {
  shape : Region.shape;
  entry_level : int;
  rescales : int;
  bts : int option;
  smo_mode : smo_mode;
  bts_mode : bts_mode;
}

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.entry_level = b.entry_level && a.rescales = b.rescales && a.bts = b.bts
    && a.smo_mode = b.smo_mode && a.bts_mode = b.bts_mode
    && Region.Shape.equal a.shape b.shape

  let hash k =
    Hashtbl.hash (k.shape.Region.hash, k.entry_level, k.rescales, k.bts, k.smo_mode, k.bts_mode)
end)

(* The per-compile cache lives inside one {!Btsmgr.plan} call and holds
   solutions by shape, naming slots.  The SMOPLC memo (templates by
   shape, cuts by shape and entry level — SMOPLC reads neither [rescales]
   nor [bts]) lives here too, so it dies with the compile. *)
type cache = { tbl : result Key_tbl.t; smo : Smoplc.memo }

let create_cache () = { tbl = Key_tbl.create 256; smo = Smoplc.create_memo () }

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun m -> raise (Infeasible m)) fmt

(* Everything below reads a region through its shape and names slots:
   [sh.slots.(s)] is slot [s], members are [0 .. sh.members - 1]. *)

let kind (sh : Region.shape) s = sh.Region.slots.(s).Region.kind

let ct_members (sh : Region.shape) =
  List.filter (fun s -> Op.produces_ct (kind sh s)) (List.init sh.Region.members Fun.id)

let liveout (sh : Region.shape) s = sh.Region.slots.(s).Region.live_out

(* Distinct tails of a cut (one inserted operation serves all cut edges
   sharing a tail), with the external producers of boundary-in heads. *)
let cut_tails (sh : Region.shape) cut ~subgraph_mem =
  let tails = Hashtbl.create 8 in
  List.iter
    (fun edge ->
      match edge with
      | Cut.Internal { tail; _ } | Cut.Boundary_out { tail } ->
          Hashtbl.replace tails tail ()
      | Cut.Boundary_in { head } ->
          List.iter
            (fun p ->
              if Op.produces_ct (kind sh p) && not (subgraph_mem p) then
                Hashtbl.replace tails p ())
            sh.Region.slots.(head).Region.preds)
    cut.Cut.edges;
  Det.sorted_keys tails

(* Forced cut of EVA's waterline strategy: a rescale immediately after
   every multiplication unit (Mul_cp directly; Mul_cc through its relin). *)
let eva_cut sh =
  let members = ct_members sh in
  let unit_output s =
    match kind sh s with Op.Mul_cp -> true | Op.Relin -> true | _ -> false
  in
  let in_region s = s < sh.Region.members && Op.produces_ct (kind sh s) in
  let edges =
    List.concat_map
      (fun s ->
        if not (unit_output s) then []
        else
          let internal =
            sh.Region.slots.(s).Region.succs |> List.filter in_region
            |> List.map (fun head -> Cut.Internal { tail = s; head })
          in
          if liveout sh s then Cut.Boundary_out { tail = s } :: internal else internal)
      members
  in
  let sink_side =
    List.filter (fun s -> (not (unit_output s)) && not (Op.is_mul (kind sh s))) members
  in
  { Cut.edges; value = 0.0; sink_side; cert = None; node_of = [||] }

(* Forced cut of PARS's lazy strategy: rescale the region's live-out
   ciphertexts only, so (almost) every region operation runs at the entry
   level.  Joins with cross-region operands (residual adds) still need
   their in-region operand rescaled first for the scales to match, so they
   and their descendants sit below the cut. *)
let pars_cut sh =
  let members = ct_members sh in
  let in_region s = s < sh.Region.members && Op.produces_ct (kind sh s) in
  let forced = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let preds = sh.Region.slots.(s).Region.preds in
      let cross_join =
        kind sh s = Op.Add_cc
        && List.exists (fun p -> Op.produces_ct (kind sh p) && not (in_region p)) preds
      in
      let pred_forced = List.exists (Hashtbl.mem forced) preds in
      if cross_join || pred_forced then Hashtbl.add forced s ())
    members;
  let edges =
    List.concat_map
      (fun s ->
        if Hashtbl.mem forced s then []
        else
          let internal =
            sh.Region.slots.(s).Region.succs
            |> List.filter (fun u -> in_region u && Hashtbl.mem forced u)
            |> List.map (fun head -> Cut.Internal { tail = s; head })
          in
          if liveout sh s then Cut.Boundary_out { tail = s } :: internal else internal)
      members
  in
  { Cut.edges; value = 0.0; sink_side = List.filter (Hashtbl.mem forced) members; cert = None; node_of = [||] }

(* Forced bootstrap placement at the region's end (Fhelipe / DaCapo):
   bootstrap every live-out of the level-0 subgraph. *)
let region_end_bts_cut sh ~subgraph =
  let in_sub = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.add in_sub s ()) subgraph;
  let edges =
    List.filter_map
      (fun s ->
        let out =
          liveout sh s
          || List.exists (fun u -> not (Hashtbl.mem in_sub u)) sh.Region.slots.(s).Region.succs
        in
        if out then Some (Cut.Boundary_out { tail = s }) else None)
      subgraph
  in
  { Cut.edges; value = 0.0; sink_side = []; cert = None; node_of = [||] }

(* One region solution, naming slots.  [region] only labels errors. *)
let compute ?fuel cache sh ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts =
  let members = ct_members sh in
  if members = [] && rescales = 0 && bts = None then
    { latency_ms = 0.0; smo_cut = None; bts_cut = None; bts_subgraph = [] }
  else begin
    if entry_level < 0 then infeasible "region %d: negative entry level" region;
    if rescales > entry_level then
      infeasible "region %d: %d rescales exceed entry level %d" region rescales
        entry_level;
    let low_level = entry_level - rescales in
    let smo_cut =
      if rescales = 0 then None
      else
        match smo_mode with
        | Smo_min_cut -> Some (Smoplc.cut ?fuel ~memo:cache.smo sh ~level:entry_level)
        | Smo_eva -> Some (eva_cut sh)
        | Smo_pars -> Some (pars_cut sh)
    in
    let member_level s =
      match smo_cut with
      | None -> entry_level
      | Some cut -> if Cut.sink_side_mem cut s then low_level else entry_level
    in
    let bts_subgraph =
      match bts with
      | None -> []
      | Some _ -> (
          match smo_cut with
          | Some cut -> cut.Cut.sink_side
          | None ->
              (* No rescale in this region: the bootstrap must still sit
                 strictly below the multiplications, otherwise it would
                 reset the scale to q *before* a multiplication and shift
                 the whole downstream scale chain (visible when the entry
                 scale differs from q, i.e. q_w < q). *)
              let muls =
                List.filter (fun s -> Op.is_mul (kind sh s)) (List.init sh.Region.members Fun.id)
              in
              if muls = [] then members
              else begin
                let below = Hashtbl.create 16 in
                List.iter (fun m -> Hashtbl.add below m ()) muls;
                let member s = List.mem s members in
                List.iter
                  (fun s ->
                    if
                      (not (Hashtbl.mem below s))
                      && List.exists (Hashtbl.mem below) sh.Region.slots.(s).Region.preds
                    then Hashtbl.add below s ())
                  members;
                List.filter (fun s -> Hashtbl.mem below s && not (List.mem s muls) && member s) members
              end)
    in
    let bts_cut =
      match bts with
      | None -> None
      | Some lbts -> (
          if bts_subgraph = [] then None
          else
            match bts_mode with
            | Bts_min_cut -> Some (Btsplc.cut ?fuel sh ~lbts ~subgraph:bts_subgraph)
            | Bts_region_end -> Some (region_end_bts_cut sh ~subgraph:bts_subgraph))
    in
    let final_level s =
      match (bts, bts_cut) with
      | Some lbts, Some cut when Cut.sink_side_mem cut s -> lbts
      | _ -> member_level s
    in
    let op_latency =
      List.fold_left
        (fun acc s -> acc +. Smoplc.cost_of sh.Region.slots.(s) ~level:(final_level s))
        0.0 members
    in
    let freq s = float_of_int sh.Region.slots.(s).Region.freq in
    let rescale_latency =
      match smo_cut with
      | None -> 0.0
      | Some cut ->
          let tails = cut_tails sh cut ~subgraph_mem:(fun _ -> true) in
          List.fold_left
            (fun acc tail ->
              let stacked = ref 0.0 in
              for i = 0 to rescales - 1 do
                stacked :=
                  !stacked
                  +. Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level:(entry_level - i)
              done;
              acc +. (freq tail *. !stacked))
            0.0 tails
    in
    let bts_latency =
      match bts with
      | None -> 0.0
      | Some lbts -> (
          let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
          let tails_cost tails =
            List.fold_left (fun acc tail -> acc +. (freq tail *. unit_cost)) 0.0 tails
          in
          match bts_cut with
          | Some cut ->
              let subgraph_mem s = List.mem s bts_subgraph in
              let base = tails_cost (cut_tails sh cut ~subgraph_mem) in
              (* Rescale tips whose live-out branch bypasses the subgraph
                 carry their own bootstrap, unless the bootstrap cut sits
                 directly on the boundary (then the insertion is shared). *)
              let all_boundary_in =
                List.for_all
                  (function Cut.Boundary_in _ -> true | _ -> false)
                  cut.Cut.edges
              in
              let boundary_extra =
                match smo_cut with
                | Some sc when not all_boundary_in ->
                    let outs =
                      List.filter_map
                        (function Cut.Boundary_out { tail } -> Some tail | _ -> None)
                        sc.Cut.edges
                    in
                    tails_cost outs
                | _ -> 0.0
              in
              base +. boundary_extra
          | None -> (
              match smo_cut with
              | Some cut -> tails_cost (cut_tails sh cut ~subgraph_mem:(fun _ -> true))
              | None ->
                  (* neither a rescale nor a level-0 subgraph: the
                     bootstrap lands on the region's live-out edges *)
                  let outs = List.filter (liveout sh) members in
                  if outs = [] then unit_cost else tails_cost outs))
    in
    {
      latency_ms = op_latency +. rescale_latency +. bts_latency;
      smo_cut;
      bts_cut;
      bts_subgraph;
    }
  end

(* The region's solution naming slots: the per-compile cache, else a
   fresh solve stored in it. *)
let solution ?fuel cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  let shape = Region.shape regioned region in
  let key = { shape; entry_level; rescales; bts; smo_mode; bts_mode } in
  match Key_tbl.find_opt cache.tbl key with
  | Some r -> r
  | None ->
      (* Fuel is deliberately absent from the key: a hit costs no steps,
         and cache population order is deterministic, so degraded
         compiles stay reproducible. *)
      Obs.Counter.bump computes;
      let r =
        compute ?fuel cache shape ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts
      in
      Key_tbl.add cache.tbl key r;
      r

let latency ?fuel cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  (solution ?fuel cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts)
    .latency_ms

let eval ?fuel cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  let r =
    solution ?fuel cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts
  in
  let id = Array.get (Region.slots regioned region) in
  {
    r with
    smo_cut = Option.map (Cut.relabel id) r.smo_cut;
    bts_cut = Option.map (Cut.relabel id) r.bts_cut;
    bts_subgraph = List.map id r.bts_subgraph;
  }
