open Fhe_ir

type smo_mode = Smo_min_cut | Smo_eva | Smo_pars
type bts_mode = Bts_min_cut | Bts_region_end

type result = {
  latency_ms : float;
  smo_cut : Cut.t option;
  bts_cut : Cut.t option;
  bts_subgraph : int list;
}

type key = {
  region : int;
  entry_level : int;
  rescales : int;
  bts : int option;
  smo_mode : smo_mode;
  bts_mode : bts_mode;
}

(* The per-compile cache lives inside one {!Btsmgr.plan} call.  The
   SMOPLC memo (templates by region, cuts by region and entry level —
   SMOPLC reads neither [rescales] nor [bts]) lives here too, so it dies
   with the compile. *)
type cache = { tbl : (key, result) Hashtbl.t; smo : Smoplc.memo }

let create_cache () = { tbl = Hashtbl.create 256; smo = Smoplc.create_memo () }

(* A cross-compile memo keyed by region *content* rather than region
   index: entries survive model edits for every region whose hash is
   unchanged, which is what makes re-planning after a single-layer edit
   incremental.  The hash (supplied by the caller, see
   {!Plan_cache.region_hashes}) covers the region's members, their
   external producers and live-out shape, the CKKS parameters and the
   cost-model fingerprint — everything [compute] reads besides the
   explicit key fields below. *)
module Memo = struct
  type mkey = {
    m_hash : int64;
    m_entry_level : int;
    m_rescales : int;
    m_bts : int option;
    m_smo : smo_mode;
    m_bts_mode : bts_mode;
  }

  type t = {
    tbl : (mkey, result) Hashtbl.t;
    lock : Mutex.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { tbl = Hashtbl.create 512; lock = Mutex.create (); hits = 0; misses = 0 }
  let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses))
  let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

  let evaluated t =
    Mutex.protect t.lock (fun () -> Det.sorted_keys t.tbl)
    |> List.map (fun k -> (k.m_hash, k.m_entry_level, k.m_rescales))
    |> List.sort_uniq compare
end

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun m -> raise (Infeasible m)) fmt

let node_cost g ~level id =
  let node = Dfg.node g id in
  match Op.cost_op node.Dfg.kind with
  | None -> 0.0
  | Some op -> float_of_int node.Dfg.freq *. Ckks.Cost_model.cost op ~level

(* Distinct tails of a cut (one inserted operation serves all cut edges
   sharing a tail), with the external producers of boundary-in heads. *)
let cut_tails g cut ~subgraph_mem =
  let tails = Hashtbl.create 8 in
  List.iter
    (fun edge ->
      match edge with
      | Cut.Internal { tail; _ } | Cut.Boundary_out { tail } ->
          Hashtbl.replace tails tail ()
      | Cut.Boundary_in { head } ->
          List.iter
            (fun p ->
              if Op.produces_ct (Dfg.node g p).Dfg.kind && not (subgraph_mem p) then
                Hashtbl.replace tails p ())
            (Dfg.preds g head))
    cut.Cut.edges;
  Det.sorted_keys tails

let liveout regioned region id =
  let g = regioned.Region.dfg in
  List.mem id (Dfg.outputs g)
  || List.exists (fun u -> regioned.Region.region_of.(u) <> region) (Dfg.succs g id)

(* Forced cut of EVA's waterline strategy: a rescale immediately after
   every multiplication unit (Mul_cp directly; Mul_cc through its relin). *)
let eva_cut regioned ~region =
  let g = regioned.Region.dfg in
  let members = Region.ct_members regioned region in
  let unit_output id =
    let node = Dfg.node g id in
    match node.Dfg.kind with
    | Op.Mul_cp -> true
    | Op.Relin -> true
    | _ -> false
  in
  let in_region id = regioned.Region.region_of.(id) = region && Op.produces_ct (Dfg.node g id).Dfg.kind in
  let edges =
    List.concat_map
      (fun id ->
        if not (unit_output id) then []
        else
          let internal =
            Dfg.succs g id |> List.filter in_region
            |> List.map (fun head -> Cut.Internal { tail = id; head })
          in
          if liveout regioned region id then Cut.Boundary_out { tail = id } :: internal
          else internal)
      members
  in
  let sink_side =
    List.filter
      (fun id ->
        not (unit_output id) && not (Op.is_mul (Dfg.node g id).Dfg.kind))
      members
  in
  { Cut.edges; value = 0.0; sink_side; cert = None; node_of = [||] }

(* Forced cut of PARS's lazy strategy: rescale the region's live-out
   ciphertexts only, so (almost) every region operation runs at the entry
   level.  Joins with cross-region operands (residual adds) still need
   their in-region operand rescaled first for the scales to match, so they
   and their descendants sit below the cut. *)
let pars_cut regioned ~region =
  let g = regioned.Region.dfg in
  let members = Region.ct_members regioned region in
  let in_region id =
    regioned.Region.region_of.(id) = region && Op.produces_ct (Dfg.node g id).Dfg.kind
  in
  let forced = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let cross_join =
        (Dfg.node g id).Dfg.kind = Op.Add_cc
        && List.exists
             (fun p -> Op.produces_ct (Dfg.node g p).Dfg.kind && not (in_region p))
             (Dfg.preds g id)
      in
      let pred_forced = List.exists (Hashtbl.mem forced) (Dfg.preds g id) in
      if cross_join || pred_forced then Hashtbl.add forced id ())
    members;
  let edges =
    List.concat_map
      (fun id ->
        if Hashtbl.mem forced id then []
        else
          let internal =
            Dfg.succs g id
            |> List.filter (fun u -> in_region u && Hashtbl.mem forced u)
            |> List.map (fun head -> Cut.Internal { tail = id; head })
          in
          if liveout regioned region id then Cut.Boundary_out { tail = id } :: internal
          else internal)
      members
  in
  { Cut.edges; value = 0.0; sink_side = List.filter (Hashtbl.mem forced) members; cert = None; node_of = [||] }

(* Forced bootstrap placement at the region's end (Fhelipe / DaCapo):
   bootstrap every live-out of the level-0 subgraph. *)
let region_end_bts_cut regioned ~region ~subgraph =
  let in_sub = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.add in_sub id ()) subgraph;
  let g = regioned.Region.dfg in
  let edges =
    List.filter_map
      (fun id ->
        let out =
          List.mem id (Dfg.outputs g)
          || List.exists (fun u -> not (Hashtbl.mem in_sub u)) (Dfg.succs g id)
        in
        if out then Some (Cut.Boundary_out { tail = id }) else None)
      subgraph
  in
  ignore region;
  { Cut.edges; value = 0.0; sink_side = []; cert = None; node_of = [||] }

let compute ?fuel cache regioned prm ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  let g = regioned.Region.dfg in
  let members = Region.ct_members regioned region in
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
        | Smo_min_cut ->
            Some (Smoplc.run ?fuel ~memo:cache.smo regioned prm ~region ~level:entry_level)
        | Smo_eva -> Some (eva_cut regioned ~region)
        | Smo_pars -> Some (pars_cut regioned ~region)
    in
    let member_level id =
      match smo_cut with
      | None -> entry_level
      | Some cut -> if Cut.sink_side_mem cut id then low_level else entry_level
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
              let muls = Region.muls regioned region in
              if muls = [] then members
              else begin
                let below = Hashtbl.create 16 in
                List.iter (fun m -> Hashtbl.add below m ()) muls;
                let member id = List.mem id members in
                List.iter
                  (fun id ->
                    if
                      (not (Hashtbl.mem below id))
                      && List.exists (Hashtbl.mem below) (Dfg.preds g id)
                    then Hashtbl.add below id ())
                  members;
                List.filter (fun id -> Hashtbl.mem below id && not (List.mem id muls) && member id) members
              end)
    in
    let bts_cut =
      match bts with
      | None -> None
      | Some lbts -> (
          if bts_subgraph = [] then None
          else
            match bts_mode with
            | Bts_min_cut ->
                Some (Btsplc.run ?fuel regioned prm ~region ~lbts ~subgraph:bts_subgraph)
            | Bts_region_end ->
                Some (region_end_bts_cut regioned ~region ~subgraph:bts_subgraph))
    in
    let final_level id =
      match (bts, bts_cut) with
      | Some lbts, Some cut when Cut.sink_side_mem cut id -> lbts
      | _ -> member_level id
    in
    let op_latency =
      List.fold_left
        (fun acc id -> acc +. node_cost g ~level:(final_level id) id)
        0.0 members
    in
    let rescale_latency =
      match smo_cut with
      | None -> 0.0
      | Some cut ->
          let tails = cut_tails g cut ~subgraph_mem:(fun _ -> true) in
          List.fold_left
            (fun acc tail ->
              let freq = float_of_int (Dfg.node g tail).Dfg.freq in
              let stacked = ref 0.0 in
              for i = 0 to rescales - 1 do
                stacked :=
                  !stacked
                  +. Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level:(entry_level - i)
              done;
              acc +. (freq *. !stacked))
            0.0 tails
    in
    let bts_latency =
      match bts with
      | None -> 0.0
      | Some lbts -> (
          let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
          let tails_cost tails =
            List.fold_left
              (fun acc tail -> acc +. (float_of_int (Dfg.node g tail).Dfg.freq *. unit_cost))
              0.0 tails
          in
          match bts_cut with
          | Some cut ->
              let subgraph_mem id = List.mem id bts_subgraph in
              let base = tails_cost (cut_tails g cut ~subgraph_mem) in
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
              | Some cut -> tails_cost (cut_tails g cut ~subgraph_mem:(fun _ -> true))
              | None ->
                  (* neither a rescale nor a level-0 subgraph: the
                     bootstrap lands on the region's live-out edges *)
                  let outs =
                    List.filter (fun id -> liveout regioned region id) members
                  in
                  if outs = [] then unit_cost else tails_cost outs))
    in
    {
      latency_ms = op_latency +. rescale_latency +. bts_latency;
      smo_cut;
      bts_cut;
      bts_subgraph;
    }
  end

let eval ?fuel ?memo cache regioned prm ~smo_mode ~bts_mode ~region ~entry_level
    ~rescales ~bts =
  let key = { region; entry_level; rescales; bts; smo_mode; bts_mode } in
  let cache_add r = Hashtbl.add cache.tbl key r in
  match Hashtbl.find_opt cache.tbl key with
  | Some r -> r
  | None -> (
      let mkey =
        Option.map
          (fun (m, hash_of) ->
            ( m,
              {
                Memo.m_hash = hash_of region;
                m_entry_level = entry_level;
                m_rescales = rescales;
                m_bts = bts;
                m_smo = smo_mode;
                m_bts_mode = bts_mode;
              } ))
          memo
      in
      let from_memo =
        match mkey with
        | None -> None
        | Some (m, k) ->
            Mutex.protect m.Memo.lock (fun () ->
                match Hashtbl.find_opt m.Memo.tbl k with
                | Some r ->
                    m.Memo.hits <- m.Memo.hits + 1;
                    Some r
                | None ->
                    m.Memo.misses <- m.Memo.misses + 1;
                    None)
      in
      match from_memo with
      | Some r ->
          Obs.incr "region_eval.memo_hits";
          cache_add r;
          r
      | None ->
          (* Fuel is deliberately absent from both keys: a hit costs no
             steps, and cache population order is deterministic, so
             degraded compiles stay reproducible. *)
          Obs.incr "region_eval.computes";
          let r =
            compute ?fuel cache regioned prm ~smo_mode ~bts_mode ~region ~entry_level
              ~rescales ~bts
          in
          cache_add r;
          (match mkey with
          | Some (m, k) ->
              Mutex.protect m.Memo.lock (fun () ->
                  if not (Hashtbl.mem m.Memo.tbl k) then Hashtbl.add m.Memo.tbl k r)
          | None -> ());
          r)
