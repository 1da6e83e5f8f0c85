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

(* The per-compile cache lives inside one {!Btsmgr.plan} call and holds
   solutions by shape, naming slots, under one int per (shape index,
   modes, entry level, rescales, bootstrap target).  Shape indices are
   those of the first regioned graph asked about, which the cache is
   then bound to.  The SMOPLC memo (templates by shape, cuts by shape and
   entry level — SMOPLC reads neither [rescales] nor [bts]) lives here
   too, so it dies with the compile. *)
module Int_tbl = Hashtbl.Make (Int)

type cache = {
  mutable owner : Region.t option;
  tbl : result Int_tbl.t;
  smo : Smoplc.memo;
}

let create_cache () = { owner = None; tbl = Int_tbl.create 256; smo = Smoplc.create_memo () }

(* The key packs the entry level and the rescales ([x + 2048]) and the
   target (0 for none, [t + 2049] for [Some t]) into 12 bits each, above
   [(shape * 3 + smo) * 2 + bts].  A value outside its field, or a shape
   past 2^23, gets [no_key]: solved without caching. *)
let no_key = -1

let key ~shape ~smo_mode ~bts_mode ~entry_level ~rescales ~bts =
  let field x = if x >= -2048 && x < 2048 then x + 2048 else no_key in
  let entry = field entry_level and rescales = field rescales in
  let target =
    match bts with None -> 0 | Some t -> if t >= -2048 && t < 2047 then t + 2049 else no_key
  in
  if entry < 0 || rescales < 0 || target < 0 || shape >= 1 lsl 23 then no_key
  else begin
    let smo = match smo_mode with Smo_min_cut -> 0 | Smo_eva -> 1 | Smo_pars -> 2 in
    let bts = match bts_mode with Bts_min_cut -> 0 | Bts_region_end -> 1 in
    let modes = (((shape * 3) + smo) * 2) + bts in
    (((((modes lsl 12) lor entry) lsl 12) lor rescales) lsl 12) lor target
  end

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun m -> raise (Infeasible m)) fmt

(* Everything below reads a region through its shape and names slots:
   [sh.slots.(s)] is slot [s], members are [0 .. sh.members - 1]. *)

let kind (sh : Region.shape) s = sh.Region.slots.(s).Region.kind

(* Ciphertext-producing members, ascending. *)
let ct_members (sh : Region.shape) =
  let l = ref [] in
  for s = sh.Region.members - 1 downto 0 do
    if Op.produces_ct (kind sh s) then l := s :: !l
  done;
  !l

let liveout (sh : Region.shape) s = sh.Region.slots.(s).Region.live_out

(* Sets of slots as one byte per slot. *)
let marks (sh : Region.shape) = Bytes.make (Array.length sh.Region.slots) '\000'
let mark m s = Bytes.set m s '\001'
let marked m s = Bytes.get m s <> '\000'

let mark_all sh l =
  let m = marks sh in
  List.iter (mark m) l;
  m

(* The marked slots, ascending. *)
let marked_list m =
  let l = ref [] in
  for s = Bytes.length m - 1 downto 0 do
    if marked m s then l := s :: !l
  done;
  !l

(* Distinct tails of a cut (one inserted operation serves all cut edges
   sharing a tail), with the external producers of boundary-in heads
   outside [subgraph] (when given), ascending. *)
let cut_tails (sh : Region.shape) cut ~subgraph =
  let tails = marks sh in
  List.iter
    (fun edge ->
      match edge with
      | Cut.Internal { tail; _ } | Cut.Boundary_out { tail } -> mark tails tail
      | Cut.Boundary_in { head } ->
          List.iter
            (fun p ->
              if
                Op.produces_ct (kind sh p)
                && match subgraph with Some sub -> not (marked sub p) | None -> false
              then mark tails p)
            sh.Region.slots.(head).Region.preds)
    cut.Cut.edges;
  marked_list tails

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
  let forced = marks sh in
  List.iter
    (fun s ->
      let preds = sh.Region.slots.(s).Region.preds in
      let cross_join =
        kind sh s = Op.Add_cc
        && List.exists (fun p -> Op.produces_ct (kind sh p) && not (in_region p)) preds
      in
      if cross_join || List.exists (marked forced) preds then mark forced s)
    members;
  let edges =
    List.concat_map
      (fun s ->
        if marked forced s then []
        else
          let internal =
            sh.Region.slots.(s).Region.succs
            |> List.filter (fun u -> in_region u && marked forced u)
            |> List.map (fun head -> Cut.Internal { tail = s; head })
          in
          if liveout sh s then Cut.Boundary_out { tail = s } :: internal else internal)
      members
  in
  {
    Cut.edges;
    value = 0.0;
    sink_side = List.filter (marked forced) members;
    cert = None;
    node_of = [||];
  }

(* Forced bootstrap placement at the region's end (Fhelipe / DaCapo):
   bootstrap every live-out of the level-0 subgraph. *)
let region_end_bts_cut sh ~subgraph =
  let in_sub = mark_all sh subgraph in
  let edges =
    List.filter_map
      (fun s ->
        let out =
          liveout sh s
          || List.exists (fun u -> not (marked in_sub u)) sh.Region.slots.(s).Region.succs
        in
        if out then Some (Cut.Boundary_out { tail = s }) else None)
      subgraph
  in
  { Cut.edges; value = 0.0; sink_side = []; cert = None; node_of = [||] }

(* One region solution, naming slots.  [region] only labels errors. *)
let compute cache sh ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts =
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
        | Smo_min_cut -> Some (Smoplc.cut ~memo:cache.smo sh ~level:entry_level)
        | Smo_eva -> Some (eva_cut sh)
        | Smo_pars -> Some (pars_cut sh)
    in
    let below_smo = Option.map (fun cut -> mark_all sh cut.Cut.sink_side) smo_cut in
    let member_level s =
      match below_smo with
      | None -> entry_level
      | Some below -> if marked below s then low_level else entry_level
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
              let below = marks sh and muls = ref false in
              for s = 0 to sh.Region.members - 1 do
                if Op.is_mul (kind sh s) then begin
                  mark below s;
                  muls := true
                end
              done;
              if not !muls then members
              else begin
                List.iter
                  (fun s ->
                    if
                      (not (marked below s))
                      && List.exists (marked below) sh.Region.slots.(s).Region.preds
                    then mark below s)
                  members;
                List.filter (fun s -> marked below s && not (Op.is_mul (kind sh s))) members
              end)
    in
    let bts_cut =
      match bts with
      | None -> None
      | Some lbts -> (
          if bts_subgraph = [] then None
          else
            match bts_mode with
            | Bts_min_cut -> Some (Btsplc.cut sh ~lbts ~subgraph:bts_subgraph)
            | Bts_region_end -> Some (region_end_bts_cut sh ~subgraph:bts_subgraph))
    in
    let below_bts =
      match (bts, bts_cut) with
      | Some lbts, Some cut -> Some (lbts, mark_all sh cut.Cut.sink_side)
      | _ -> None
    in
    let final_level s =
      match below_bts with
      | Some (lbts, below) when marked below s -> lbts
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
          let tails = cut_tails sh cut ~subgraph:None in
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
              let subgraph = Some (mark_all sh bts_subgraph) in
              let base = tails_cost (cut_tails sh cut ~subgraph) in
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
              | Some cut -> tails_cost (cut_tails sh cut ~subgraph:None)
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
let solution cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  (match cache.owner with
  | Some r when r == regioned -> ()
  | Some _ -> invalid_arg "Region_eval: the cache serves another regioned graph"
  | None -> cache.owner <- Some regioned);
  let shape = regioned.Region.shape_ids.(region) in
  let key = key ~shape ~smo_mode ~bts_mode ~entry_level ~rescales ~bts in
  match if key = no_key then None else Int_tbl.find_opt cache.tbl key with
  | Some r -> r
  | None ->
      Obs.Counter.bump computes;
      let r =
        compute cache (Region.shape regioned region) ~region ~smo_mode ~bts_mode ~entry_level
          ~rescales ~bts
      in
      if key <> no_key then Int_tbl.add cache.tbl key r;
      r

let latency cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  (solution cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts)
    .latency_ms

let eval cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  let r =
    solution cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts
  in
  let id = Array.get (Region.slots regioned region) in
  {
    r with
    smo_cut = Option.map (Cut.relabel id) r.smo_cut;
    bts_cut = Option.map (Cut.relabel id) r.bts_cut;
    bts_subgraph = List.map id r.bts_subgraph;
  }
