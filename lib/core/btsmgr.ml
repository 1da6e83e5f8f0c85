type config = {
  min_level_bts : bool;
  smo_mode : Region_eval.smo_mode;
  bts_mode : Region_eval.bts_mode;
  price_transits : bool;
}

let resbm_config =
  {
    min_level_bts = true;
    smo_mode = Region_eval.Smo_min_cut;
    bts_mode = Region_eval.Bts_min_cut;
    price_transits = true;
  }

type bts_action = { target : int; cut : Cut.t option; subgraph : int list }

type region_action = {
  rescales : int;
  entry_level : int;
  entry_scale : int;
  smo_cut : Cut.t option;
  bts : bts_action option;
}

type plan = {
  actions : region_action array;
  segments : (int * int) list;
  dp_latency_ms : float;
}

exception No_plan of string

type segment_eval = {
  seg_src : int;
  seg_bts : int option;  (* bootstrap target at src, if any *)
  seg_infos : Scalemgr.region_info array;  (* [src, dst] *)
  seg_levels : int array;  (* entry level per region in [src, dst] *)
  seg_latency : float;
}

(* Ciphertext edges that fly over region boundaries: producer region,
   consumer region, frequency.  When a bootstrap raises the main chain
   above such a producer's level, the plan application must bootstrap the
   flying value too ("level-deficit repair"); the DP charges that cost so
   segment boundaries gravitate away from live residual spans.  Edges are
   grouped by consumer region for incremental accumulation in the DP's
   inner loop. *)
let cross_edges_by_consumer regioned =
  let g = regioned.Region.dfg in
  let count = regioned.Region.count in
  let by_rb = Array.make count [] in
  List.iter
    (fun node ->
      let id = node.Fhe_ir.Dfg.id in
      if Fhe_ir.Op.produces_ct node.Fhe_ir.Dfg.kind then begin
        let ra = regioned.Region.region_of.(id) in
        let consumer_regions =
          List.sort_uniq compare
            (List.filter_map
               (fun u ->
                 let rb = regioned.Region.region_of.(u) in
                 if rb > ra + 1 then Some rb else None)
               (Fhe_ir.Dfg.succs g id))
        in
        List.iter
          (fun rb -> by_rb.(rb) <- (ra, node.Fhe_ir.Dfg.freq) :: by_rb.(rb))
          consumer_regions
      end)
    (Fhe_ir.Dfg.live_nodes g);
  by_rb

let plan ?(config = resbm_config) ?(fuel = Fuel.unlimited) ?(segment_scan = `Full)
    ?jobs:_ ?memo regioned prm =
  let count = regioned.Region.count in
  let last = count - 1 in
  let cache = Region_eval.create_cache () in
  let l_max = prm.Ckks.Params.l_max in
  let cross_by_rb = cross_edges_by_consumer regioned in
  let eval ~region ~entry_level ~rescales ~bts =
    Region_eval.eval ~fuel ?memo cache regioned prm ~smo_mode:config.smo_mode
      ~bts_mode:config.bts_mode ~region ~entry_level ~rescales ~bts
  in
  let region_latency ~region ~entry_level ~rescales ~bts =
    Region_eval.latency ~fuel ?memo cache regioned prm ~smo_mode:config.smo_mode
      ~bts_mode:config.bts_mode ~region ~entry_level ~rescales ~bts
  in
  if count = 1 then
    {
      actions =
        [|
          {
            rescales = 0;
            entry_level = prm.Ckks.Params.input_level;
            entry_scale = prm.Ckks.Params.input_scale_bits;
            smo_cut = None;
            bts = None;
          };
        |];
      segments = [];
      dp_latency_ms =
        region_latency ~region:0 ~entry_level:prm.Ckks.Params.input_level ~rescales:0 ~bts:None;
    }
  else begin
    let min_lat = Array.make count infinity in
    let best : segment_eval option array = Array.make count None in
    let boundary_scale = Array.make count 0 in
    let boundary_level = Array.make count 0 in
    (* Production level of each region's live-out values under the best
       chain found so far: bootstrap target for source regions, entry
       minus rescales otherwise.  Filled as the outer loop finalises each
       boundary; used to price transits exactly as the repair pass will. *)
    let prod_level = Array.make count prm.Ckks.Params.input_level in
    min_lat.(0) <- 0.0;
    boundary_scale.(0) <- prm.Ckks.Params.input_scale_bits;
    boundary_level.(0) <- prm.Ckks.Params.input_level;
    (* Evaluate a candidate segment; raises Not_found when infeasible. *)
    let try_segment ~src ~dst ~no_bts =
      Fuel.spend fuel;
      Obs.incr "btsmgr.segment_evals";
      let sp =
        Scalemgr.plan regioned prm ~src ~dst ~src_entry_scale:boundary_scale.(src)
          ~bts_at_src:(not no_bts)
      in
      let src_entry = boundary_level.(src) in
      let k_src = sp.Scalemgr.infos.(0).rescales in
      (* The final region's own rescales are never applied (there is no
         following segment to spend them in); it only needs enough level
         for its multiplications' capacity. *)
      let is_final = dst = last in
      let lbts_req =
        if is_final then begin
          let info_dst = sp.Scalemgr.infos.(dst - src) in
          let q = prm.Ckks.Params.scale_bits in
          let cap_need = max 0 (((info_dst.Scalemgr.peak_scale + q - 1) / q) - 1) in
          sp.Scalemgr.lbts - info_dst.Scalemgr.rescales + cap_need
        end
        else sp.Scalemgr.lbts
      in
      let budget = if no_bts then src_entry - k_src else l_max in
      if lbts_req > budget then None
      else if k_src > src_entry then None
      else begin
        let bts_target =
          if no_bts then None
          else Some (if config.min_level_bts then max lbts_req 1 else max l_max 1)
        in
        let top = match bts_target with Some t -> t | None -> src_entry - k_src in
        let levels = Array.make (dst - src + 1) 0 in
        levels.(0) <- src_entry;
        let cur = ref top in
        (try
           for r = src + 1 to dst do
             levels.(r - src) <- !cur;
             let k = sp.Scalemgr.infos.(r - src).rescales in
             if k > !cur && not (is_final && r = dst) then raise Exit;
             if
               not
                 (Ckks.Evaluator.capacity_ok prm
                    ~scale_bits:sp.Scalemgr.infos.(r - src).peak_scale ~level:!cur)
             then raise Exit;
             cur := !cur - k
           done;
           if
             not
               (Ckks.Evaluator.capacity_ok prm
                  ~scale_bits:sp.Scalemgr.infos.(0).peak_scale ~level:src_entry)
           then raise Exit
         with Exit -> raise_notrace Not_found);
        (* Latency of the regions [src, dst). *)
        let latency = ref 0.0 in
        (try
           for r = src to dst - 1 do
             latency :=
               !latency
               +. region_latency ~region:r ~entry_level:levels.(r - src)
                    ~rescales:sp.Scalemgr.infos.(r - src).rescales
                    ~bts:(if r = src then bts_target else None)
           done
         with Region_eval.Infeasible _ -> raise_notrace Not_found);
        (* Exact repair pricing: values produced before [src] (levels
           already final) and consumed inside [(src, dst]] above their
           production level will be bootstrapped by the repair pass. *)
        if config.price_transits then
        for rb = src + 1 to dst do
          let need = levels.(rb - src) in
          List.iter
            (fun (ra, freq) ->
              if ra < src && prod_level.(ra) < need && need <= l_max then
                latency :=
                  !latency
                  +. float_of_int freq
                     *. Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:need)
            cross_by_rb.(rb)
        done;
        Some
          {
            seg_src = src;
            seg_bts = bts_target;
            seg_infos = sp.Scalemgr.infos;
            seg_levels = levels;
            seg_latency = !latency;
          }
      end
    in
    for src = 0 to last - 1 do
      if min_lat.(src) < infinity then begin
        (* The chain to [src] is final: rebuild the production levels of
           every region it covers (a fresh walk — intermediate boundaries
           belong to other chains and must not leak in). *)
        Array.fill prod_level 0 count prm.Ckks.Params.input_level;
        let at = ref src in
        while !at > 0 do
          match best.(!at) with
          | None -> at := 0
          | Some seg ->
              Array.iteri
                (fun i info ->
                  let r = seg.seg_src + i in
                  if r < !at then begin
                    let base = seg.seg_levels.(i) - info.Scalemgr.rescales in
                    prod_level.(r) <-
                      (if r = seg.seg_src then
                         match seg.seg_bts with Some t -> max t base | None -> base
                       else base)
                  end)
                seg.seg_infos;
              at := seg.seg_src
        done;
        let continue_scan = ref true in
        let dst = ref (src + 1) in
        (* `Adjacent: every boundary is a segment boundary (one region per
           segment, a bootstrap at each source) — the O(regions) eager
           scan used by the last fallback tier. *)
        let scan_last = match segment_scan with `Full -> last | `Adjacent -> src + 1 in
        let fold_candidates d candidates =
          Obs.incr ~by:(List.length candidates) "btsmgr.candidates";
          List.iter
            (fun seg ->
              let cand = min_lat.(src) +. seg.seg_latency in
              if cand < min_lat.(d) then begin
                min_lat.(d) <- cand;
                best.(d) <- Some seg;
                boundary_scale.(d) <- seg.seg_infos.(d - src).Scalemgr.entry_scale;
                boundary_level.(d) <- seg.seg_levels.(d - src)
              end)
            candidates
        in
        while !continue_scan && !dst <= scan_last do
          let candidates =
            (if src = 0 then
               match try_segment ~src ~dst:!dst ~no_bts:true with
               | Some s -> [ s ]
               | None | (exception Not_found) -> []
             else [])
            @
            match try_segment ~src ~dst:!dst ~no_bts:false with
            | Some s -> [ s ]
            | None ->
                continue_scan := false;
                []
            | exception Not_found -> []
          in
          fold_candidates !dst candidates;
          incr dst
        done
      end
    done;
    if min_lat.(last) = infinity then
      raise
        (No_plan
           (Printf.sprintf
              "no feasible bootstrapping plan (l_max = %d too small for some region \
               sequence)"
              l_max));
    (* Backtrack the chosen segments. *)
    let segments = ref [] in
    let at = ref last in
    while !at > 0 do
      match best.(!at) with
      | None ->
          raise (No_plan (Printf.sprintf "region %d unreachable in DP backtrack" !at))
      | Some seg ->
          segments := (seg.seg_src, !at, seg) :: !segments;
          at := seg.seg_src
    done;
    (* Materialise per-region actions. *)
    let actions =
      Array.make count
        {
          rescales = 0;
          entry_level = 0;
          entry_scale = prm.Ckks.Params.input_scale_bits;
          smo_cut = None;
          bts = None;
        }
    in
    List.iter
      (fun (src, dst, seg) ->
        for r = src to dst - 1 do
          let k = seg.seg_infos.(r - src).Scalemgr.rescales in
          let entry_level = seg.seg_levels.(r - src) in
          let bts_here = if r = src then seg.seg_bts else None in
          let res = eval ~region:r ~entry_level ~rescales:k ~bts:bts_here in
          actions.(r) <-
            {
              rescales = k;
              entry_level;
              entry_scale = seg.seg_infos.(r - src).Scalemgr.entry_scale;
              smo_cut = res.Region_eval.smo_cut;
              bts =
                (match bts_here with
                | None -> None
                | Some target ->
                    Some
                      {
                        target;
                        cut = res.Region_eval.bts_cut;
                        subgraph = res.Region_eval.bts_subgraph;
                      });
            }
        done)
      !segments;
    let final_latency =
      region_latency ~region:last ~entry_level:boundary_level.(last) ~rescales:0 ~bts:None
    in
    actions.(last) <-
      {
        rescales = 0;
        entry_level = boundary_level.(last);
        entry_scale = boundary_scale.(last);
        smo_cut = None;
        bts = None;
      };
    {
      actions;
      segments = List.map (fun (s, d, _) -> (s, d)) !segments;
      dp_latency_ms = min_lat.(last) +. final_latency;
    }
  end
