let scalemgr_plans = Obs.Counter.make "scalemgr.plans"
let segment_evals = Obs.Counter.make "btsmgr.segment_evals"
let candidates_counter = Obs.Counter.make "btsmgr.candidates"

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

(* SCALEMGR's plan of the regions from one segment source on, extended by
   one region per destination the scan tries.  A grown buffer keeps its
   prefix, so a segment only needs the window and its own bounds.

   The window also remembers how far the segment feasibility checks got:
   every region of [(src, checked]] passed the rescale and capacity checks
   at some earlier destination's top.  Within a window the top never
   falls: without a bootstrap at [src] it is [src]'s entry less its
   rescales, and a bootstrap target is [l_max] or, under
   [min_level_bts], the requirement [lbts(dst - src)], which grows with
   [dst].  The final destination requires [lbts(dst - 1 - src)] plus its
   capacity need, no less than the destination before it.  A region past
   [src] enters at the top less the rescales before it, so its level
   rises with the top, and both checks only get easier as a level rises
   (the final destination drops the rescale check on itself, which
   relaxes it further).  So every destination, the final one included,
   re-checks only the regions past [checked].  A check that fails does so
   past [checked], which therefore stays put, and the next destination
   re-checks that region anyway. *)
type window = {
  src : int;
  bts_at_src : bool;
  mutable infos : Scalemgr.region_info array;  (* index [r - src] *)
  mutable lbts : int array;  (* [lbts.(i)]: rescales of regions [(src, src + i]] *)
  mutable len : int;  (* regions [src, src + len) are planned *)
  mutable checked : int;  (* [src] until a check passes *)
}

type segment_eval = {
  seg_bts : int option;  (* bootstrap target at src, if any *)
  seg_entry : int;  (* entry level of src *)
  seg_top : int;  (* entry level of src + 1: the target, or entry minus src's rescales *)
  seg_window : window;  (* from src, covering [src, dst] *)
  seg_latency : float;
}

let seg_src seg = seg.seg_window.src
let seg_info seg r = seg.seg_window.infos.(r - seg_src seg)

(* Entry level of region [r] in [src, dst]: past the source, every region
   enters at [top] less the rescales of the regions before it. *)
let seg_level seg r =
  let i = r - seg_src seg in
  if i = 0 then seg.seg_entry else seg.seg_top - seg.seg_window.lbts.(i - 1)

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

let plan ?(config = resbm_config) ?jobs:_ regioned prm =
  let count = regioned.Region.count in
  let last = count - 1 in
  let cache = Region_eval.create_cache () in
  let l_max = prm.Ckks.Params.l_max in
  let cross_by_rb = cross_edges_by_consumer regioned in
  (* [minra.(src)]: the lowest producer region of a cross edge spanning
     [src] (produced below it, consumed above it), or [src] when none
     does.  Transit pricing from source [src] reads production levels only
     over [[minra.(src), src)].  One sweep down from the last region,
     carrying the lowest producer of the edges consumed above [src]. *)
  let minra = Array.make count 0 in
  let lowest = ref max_int in
  for src = count - 1 downto 0 do
    minra.(src) <- Int.min src !lowest;
    List.iter (fun (ra, _) -> lowest := Int.min ra !lowest) cross_by_rb.(src)
  done;
  let eval ~region ~entry_level ~rescales ~bts =
    Region_eval.eval cache regioned ~smo_mode:config.smo_mode
      ~bts_mode:config.bts_mode ~region ~entry_level ~rescales ~bts
  in
  let region_latency ~region ~entry_level ~rescales ~bts =
    Region_eval.latency cache regioned ~smo_mode:config.smo_mode
      ~bts_mode:config.bts_mode ~region ~entry_level ~rescales ~bts
  in
  (* The latency table [L[shape][level][rescales]] of the regions that do
     not bootstrap, filled from Region_eval on first use.  It only skips
     calls Region_eval's own cache would answer, which touch no counter.
     Rows are allocated per shape on demand; [nan] marks an entry not
     read yet, and an infeasible entry stays unread so every read
     re-raises. *)
  let width = 1 + max l_max prm.Ckks.Params.input_level in
  let table = Array.make (1 + Array.fold_left max 0 regioned.Region.shape_ids) [||] in
  let plain_latency ~region ~entry_level ~rescales =
    if entry_level < 0 || entry_level >= width || rescales < 0 || rescales > entry_level then
      region_latency ~region ~entry_level ~rescales ~bts:None
    else begin
      let shape = regioned.Region.shape_ids.(region) in
      if Array.length table.(shape) = 0 then table.(shape) <- Array.make (width * width) nan;
      let row = table.(shape) and i = (entry_level * width) + rescales in
      let l = row.(i) in
      if Float.is_nan l then begin
        let l = region_latency ~region ~entry_level ~rescales ~bts:None in
        row.(i) <- l;
        l
      end
      else l
    end
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
       chain to the current source: bootstrap target for source regions,
       entry minus rescales otherwise.  Refilled for each source over the
       regions its transits read ([[minra.(src), src)]); used to price
       transits exactly as the repair pass will. *)
    let prod_level = Array.make count prm.Ckks.Params.input_level in
    min_lat.(0) <- 0.0;
    boundary_scale.(0) <- prm.Ckks.Params.input_scale_bits;
    boundary_level.(0) <- prm.Ckks.Params.input_level;
    (* A fresh SCALEMGR window at [src]: one sequence plan per source and
       bootstrap choice, extended region by region as [dst] grows. *)
    let open_window src ~bts_at_src =
      Obs.Counter.bump scalemgr_plans;
      let cap = min (count - src) 16 in
      let info = Scalemgr.step regioned prm ~region:src ~entry_scale:boundary_scale.(src) in
      {
        src;
        bts_at_src;
        infos = Array.make cap info;
        lbts = Array.make cap 0;
        len = 1;
        checked = src;
      }
    in
    let extend w =
      let i = w.len in
      if i = Array.length w.infos then begin
        let cap = min (count - w.src) (2 * i) in
        let grow a = Array.append a (Array.make (cap - i) a.(0)) in
        w.infos <- grow w.infos;
        w.lbts <- grow w.lbts
      end;
      let entry_scale =
        Scalemgr.next_entry_scale prm ~bts:(i = 1 && w.bts_at_src) w.infos.(i - 1)
      in
      let info = Scalemgr.step regioned prm ~region:(w.src + i) ~entry_scale in
      w.infos.(i) <- info;
      w.lbts.(i) <- w.lbts.(i - 1) + info.Scalemgr.rescales;
      w.len <- i + 1
    in
    (* Evaluate the candidate segment from [w]'s source to [dst]; [w]
       covers [[src, dst)] and grows to [dst] here.  [None] when the
       bootstrap budget cannot reach [dst] (nor any later destination);
       raises Not_found when infeasible. *)
    let try_segment ~dst w =
      Obs.Counter.bump segment_evals;
      extend w;
      let src = w.src and no_bts = not w.bts_at_src in
      let info r = w.infos.(r - src) in
      let src_entry = boundary_level.(src) in
      let k_src = (info src).Scalemgr.rescales in
      (* The final region's own rescales are never applied (there is no
         following segment to spend them in); it only needs enough level
         for its multiplications' capacity. *)
      let is_final = dst = last in
      let lbts_req =
        if is_final then begin
          let info_dst = info dst in
          let q = prm.Ckks.Params.scale_bits in
          let cap_need = max 0 (((info_dst.Scalemgr.peak_scale + q - 1) / q) - 1) in
          w.lbts.(dst - src) - info_dst.Scalemgr.rescales + cap_need
        end
        else w.lbts.(dst - src)
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
        let seg =
          {
            seg_bts = bts_target;
            seg_entry = src_entry;
            seg_top = top;
            seg_window = w;
            seg_latency = 0.0;
          }
        in
        (try
           for r = w.checked + 1 to dst do
             let k = (info r).Scalemgr.rescales and level = seg_level seg r in
             if k > level && not (is_final && r = dst) then raise Exit;
             if
               not
                 (Ckks.Evaluator.capacity_ok prm ~scale_bits:(info r).Scalemgr.peak_scale ~level)
             then raise Exit
           done;
           if
             not
               (Ckks.Evaluator.capacity_ok prm ~scale_bits:(info src).Scalemgr.peak_scale
                  ~level:src_entry)
           then raise Exit
         with Exit -> raise_notrace Not_found);
        if not is_final then w.checked <- dst;
        (* Latency of the regions [src, dst), left to right.  The source
           level depends on the target, which under [min_level_bts] grows
           with [dst], so the sum is re-read, not carried forward. *)
        let latency = ref 0.0 in
        (try
           latency :=
             (match bts_target with
             | Some _ ->
                 region_latency ~region:src ~entry_level:src_entry ~rescales:k_src ~bts:bts_target
             | None -> plain_latency ~region:src ~entry_level:src_entry ~rescales:k_src);
           for r = src + 1 to dst - 1 do
             latency :=
               !latency
               +. plain_latency ~region:r ~entry_level:(seg_level seg r)
                    ~rescales:(info r).Scalemgr.rescales
           done
         with Region_eval.Infeasible _ -> raise_notrace Not_found);
        (* Exact repair pricing: values produced before [src] (levels
           already final) and consumed inside [(src, dst]] above their
           production level will be bootstrapped by the repair pass. *)
        if config.price_transits then
        for rb = src + 1 to dst do
          let need = seg_level seg rb in
          List.iter
            (fun (ra, freq) ->
              if ra < src && prod_level.(ra) < need && need <= l_max then
                latency :=
                  !latency
                  +. float_of_int freq
                     *. Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:need)
            cross_by_rb.(rb)
        done;
        Some { seg with seg_latency = !latency }
      end
    in
    for src = 0 to last - 1 do
      if min_lat.(src) < infinity then begin
        (* The chain to [src] is final: rebuild the production levels of
           the regions its transits read, [[lo, src)] (a fresh walk back
           to [lo] — intermediate boundaries belong to other chains and
           must not leak in). *)
        let lo = minra.(src) in
        Array.fill prod_level lo (src - lo) prm.Ckks.Params.input_level;
        let at = ref src in
        while !at > lo do
          match best.(!at) with
          | None -> at := 0
          | Some seg ->
              for r = Int.max (seg_src seg) lo to !at - 1 do
                let base = seg_level seg r - (seg_info seg r).Scalemgr.rescales in
                prod_level.(r) <-
                  (if r = seg_src seg then
                     match seg.seg_bts with Some t -> max t base | None -> base
                   else base)
              done;
              at := seg_src seg
        done;
        let continue_scan = ref true in
        let dst = ref (src + 1) in
        let window = open_window src ~bts_at_src:true in
        (* Region 0 may also run on the fresh input levels. *)
        let input_window = if src = 0 then Some (open_window src ~bts_at_src:false) else None in
        while !continue_scan && !dst <= last do
          let d = !dst in
          let candidates = ref 0 in
          let consider seg =
            incr candidates;
            let cand = min_lat.(src) +. seg.seg_latency in
            if cand < min_lat.(d) then begin
              min_lat.(d) <- cand;
              best.(d) <- Some seg;
              boundary_scale.(d) <- (seg_info seg d).Scalemgr.entry_scale;
              boundary_level.(d) <- seg_level seg d
            end
          in
          Option.iter
            (fun w ->
              match try_segment ~dst:d w with
              | Some seg -> consider seg
              | None | (exception Not_found) -> ())
            input_window;
          (match try_segment ~dst:d window with
          | Some seg -> consider seg
          | None -> continue_scan := false
          | exception Not_found -> ());
          Obs.Counter.add candidates_counter !candidates;
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
          segments := (seg_src seg, !at, seg) :: !segments;
          at := seg_src seg
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
          let k = (seg_info seg r).Scalemgr.rescales in
          let entry_level = seg_level seg r in
          let bts_here = if r = src then seg.seg_bts else None in
          let res = eval ~region:r ~entry_level ~rescales:k ~bts:bts_here in
          actions.(r) <-
            {
              rescales = k;
              entry_level;
              entry_scale = (seg_info seg r).Scalemgr.entry_scale;
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
