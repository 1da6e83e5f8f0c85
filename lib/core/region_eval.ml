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

(* A region solution naming slots, as the cache keeps it: the cuts with
   their certificates deferred. *)
type solved = {
  s_latency : float;
  s_smo : Cut.deferred option;
  s_bts : Cut.deferred option;
  s_subgraph : int list;
}

(* The solutions of one (shape, modes, rescales), by entry level and
   bootstrap target: [(entry * (levels + 2)) + target] with target 0 for
   none and [t + 1] for [Some t]; [unsolved] until computed. *)
type table = solved array

(* What a compile reads of one shape more than once: its ciphertext
   members, the forced EVA and PARS cuts and the no-rescale bootstrap
   subgraph (each built on first use: they depend on the shape alone),
   and its tables by [(modes * (levels + 1)) + rescales], allocated on
   first use. *)
type per_shape = {
  sh : Region.shape;
  members : int list;
  eva : Cut.deferred Lazy.t;
  pars : Cut.deferred Lazy.t;
  plain_subgraph : int list Lazy.t;
  tables : table array;
}

(* The per-compile cache lives inside one {!Btsmgr.plan} call and holds
   solutions by shape index, naming slots.  Shape indices are those of
   the first regioned graph asked about, which the cache is then bound
   to.  The SMOPLC memo (templates by shape, cuts by shape and entry level
   — SMOPLC reads neither [rescales] nor [bts]) and the BTSPLC memo
   (templates by shape and level-0 subgraph, cuts by target) live here
   too, so they die with the compile. *)
type cache = {
  levels : int;
  mutable owner : Region.t option;
  mutable shapes : per_shape array;
  smo : Smoplc.memo;
  bts : Btsplc.memo;
}

let create_cache (prm : Ckks.Params.t) =
  {
    levels = Int.max 1 (Int.max prm.Ckks.Params.l_max prm.Ckks.Params.input_level);
    owner = None;
    shapes = [||];
    smo = Smoplc.create_memo ();
    bts = Btsplc.create_memo ();
  }

let unsolved = { s_latency = nan; s_smo = None; s_bts = None; s_subgraph = [] }
let no_table : table = [||]

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

(* The bootstrap subgraph of a region without a rescale: the bootstrap
   must still sit strictly below the multiplications, otherwise it would
   reset the scale to q *before* a multiplication and shift the whole
   downstream scale chain (visible when the entry scale differs from q,
   i.e. q_w < q). *)
let plain_subgraph sh members =
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
  end

(* One region solution, naming slots.  [region] only labels errors. *)
let compute cache ps ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts =
  let sh = ps.sh and members = ps.members in
  if members = [] && rescales = 0 && bts = None then
    { s_latency = 0.0; s_smo = None; s_bts = None; s_subgraph = [] }
  else begin
    if entry_level < 0 then infeasible "region %d: negative entry level" region;
    if rescales > entry_level then
      infeasible "region %d: %d rescales exceed entry level %d" region rescales
        entry_level;
    let low_level = entry_level - rescales in
    let smo =
      if rescales = 0 then None
      else
        match smo_mode with
        | Smo_min_cut -> Some (Smoplc.solve ~memo:cache.smo sh ~level:entry_level)
        | Smo_eva -> Some (Lazy.force ps.eva)
        | Smo_pars -> Some (Lazy.force ps.pars)
    in
    let smo_cut = Option.map Cut.uncertified smo in
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
          | None -> Lazy.force ps.plain_subgraph)
    in
    let bts_d =
      match bts with
      | None -> None
      | Some lbts -> (
          if bts_subgraph = [] then None
          else
            match bts_mode with
            | Bts_min_cut ->
                Some (Btsplc.solve ~memo:cache.bts sh ~lbts ~subgraph:bts_subgraph)
            | Bts_region_end ->
                Some (Cut.settled (region_end_bts_cut sh ~subgraph:bts_subgraph)))
    in
    let bts_cut = Option.map Cut.uncertified bts_d in
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
      s_latency = op_latency +. rescale_latency +. bts_latency;
      s_smo = smo;
      s_bts = bts_d;
      s_subgraph = bts_subgraph;
    }
  end

(* The shape record of [region], binding the cache to [regioned] on
   first use. *)
let per_shape cache regioned region =
  match cache.owner with
  | Some r when r == regioned -> cache.shapes.(regioned.Region.shape_ids.(region))
  | Some _ -> invalid_arg "Region_eval: the cache serves another regioned graph"
  | None ->
      let ids = regioned.Region.shape_ids in
      let n = 1 + Array.fold_left Int.max (-1) ids in
      let shapes = Array.make n None in
      Array.iteri
        (fun r id ->
          match shapes.(id) with
          | Some _ -> ()
          | None ->
              let sh = Region.shape regioned r in
              let members = ct_members sh in
              shapes.(id) <-
                Some
                  {
                    sh;
                    members;
                    eva = lazy (Cut.settled (eva_cut sh));
                    pars = lazy (Cut.settled (pars_cut sh));
                    plain_subgraph = lazy (plain_subgraph sh members);
                    tables = Array.make (6 * (cache.levels + 1)) no_table;
                  })
        ids;
      cache.shapes <- Array.map Option.get shapes;
      cache.owner <- Some regioned;
      cache.shapes.(ids.(region))

let fresh cache ps ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts =
  Obs.Counter.bump computes;
  compute cache ps ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts

(* The region's solution naming slots: the per-compile table, else a
   fresh solve stored in it.  A region that cannot run as asked (a
   negative entry level, more rescales than the entry level) is solved
   uncached, which raises {!Infeasible} unless the region has nothing to
   run. *)
let solution cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  let ps = per_shape cache regioned region in
  if entry_level < 0 || rescales > entry_level then
    fresh cache ps ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts
  else begin
    let levels = cache.levels in
    let target = match bts with None -> 0 | Some t when t >= 0 -> t + 1 | Some _ -> -1 in
    if entry_level > levels || rescales < 0 || target < 0 || target > levels + 1 then
      invalid_arg "Region_eval: level outside the cache's range";
    let modes =
      (match smo_mode with Smo_min_cut -> 0 | Smo_eva -> 2 | Smo_pars -> 4)
      + match bts_mode with Bts_min_cut -> 0 | Bts_region_end -> 1
    in
    let t = (modes * (levels + 1)) + rescales in
    let table =
      let tb = ps.tables.(t) in
      if tb != no_table then tb
      else begin
        let tb = Array.make ((levels + 1) * (levels + 2)) unsolved in
        ps.tables.(t) <- tb;
        tb
      end
    in
    let i = (entry_level * (levels + 2)) + target in
    let r = table.(i) in
    if r != unsolved then r
    else begin
      let r = fresh cache ps ~region ~smo_mode ~bts_mode ~entry_level ~rescales ~bts in
      table.(i) <- r;
      r
    end
  end

let latency cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  (solution cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts)
    .s_latency

(* Only here are certificates built: once per distinct cut, shared by
   every region whose solution names it. *)
let eval cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  let r =
    solution cache regioned ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts
  in
  let id = Array.get (Region.slots regioned region) in
  let certified = Option.map (fun d -> Cut.relabel id (Cut.certified d)) in
  {
    latency_ms = r.s_latency;
    smo_cut = certified r.s_smo;
    bts_cut = certified r.s_bts;
    bts_subgraph = List.map id r.s_subgraph;
  }
