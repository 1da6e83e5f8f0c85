open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* A conv-like region: three freq-weighted multiplications, an add tree, a
   cheap frequency-1 repack at the end.  The interesting property: the
   min-cut should place the single rescale at the narrow frequency-1 tail
   rather than after each multiplication. *)
let conv_region_graph ~channels =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let t0 = Dfg.mul_cp g ~freq:channels x (Dfg.const g "w0") in
  let t1 = Dfg.mul_cp g ~freq:channels (Dfg.rotate g x (-1)) (Dfg.const g "w1") in
  let t2 = Dfg.mul_cp g ~freq:channels (Dfg.rotate g x 1) (Dfg.const g "w2") in
  let s = Dfg.add_cc g ~freq:channels (Dfg.add_cc g ~freq:channels t0 t1) t2 in
  let repack = Dfg.add_cc g s (Dfg.rotate g s channels) in
  Dfg.set_outputs g [ repack ];
  (g, repack)

let smo_cut_exists () =
  let g, _ = conv_region_graph ~channels:16 in
  let r = Resbm.Region.build g in
  let cut = Resbm.Smoplc.run r ~region:1 ~level:2 in
  checkb "non-empty cut" true (cut.Resbm.Cut.edges <> []);
  checkb "finite value" true (Float.is_finite cut.Resbm.Cut.value)

let smo_cut_prefers_cheap_tail () =
  let g, repack = conv_region_graph ~channels:64 in
  let r = Resbm.Region.build g in
  let cut = Resbm.Smoplc.run r ~region:1 ~level:2 in
  (* with 64 channels, rescaling each mul costs 64x; the cut must use the
     frequency-1 repack live-out edge *)
  check (Alcotest.list Alcotest.bool) "single boundary edge" [ true ]
    (List.map
       (function Resbm.Cut.Boundary_out { tail } -> tail = repack | _ -> false)
       cut.Resbm.Cut.edges)

let smo_cut_respects_relin () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc g x x in
  Dfg.set_outputs g [ m ];
  let r = Resbm.Region.build g in
  let cut = Resbm.Smoplc.run r ~region:1 ~level:2 in
  (* the only legal position is after the relin, never between mul and
     relin *)
  List.iter
    (fun edge ->
      match edge with
      | Resbm.Cut.Internal { tail; _ } | Resbm.Cut.Boundary_out { tail } ->
          checkb "tail is not a raw mul_cc" true ((Dfg.node g tail).Dfg.kind <> Op.Mul_cc)
      | Resbm.Cut.Boundary_in _ -> Alcotest.fail "SMO cut has no boundary-in edges")
    cut.Resbm.Cut.edges

(* Every multiplication-to-live-out path must cross the cut exactly once. *)
let paths_cross_cut_once =
  qcheck ~count:40 "SMO cut separates sources from live-outs exactly once"
    (random_dfg_gen ~max_nodes:40 ~max_depth:4)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      let ok = ref true in
      for region = 1 to r.Resbm.Region.count - 1 do
        let members = Resbm.Region.ct_members r region in
        if Resbm.Region.muls r region <> [] && members <> [] then begin
          let cut = Resbm.Smoplc.run r ~region ~level:2 in
          let crossing = Hashtbl.create 16 in
          List.iter
            (fun e ->
              match e with
              | Resbm.Cut.Internal { tail; head } -> Hashtbl.replace crossing (tail, head) ()
              | Resbm.Cut.Boundary_out { tail } -> Hashtbl.replace crossing (tail, -1) ()
              | Resbm.Cut.Boundary_in _ -> ())
            cut.Resbm.Cut.edges;
          let in_region = Hashtbl.create 16 in
          List.iter (fun id -> Hashtbl.add in_region id ()) members;
          (* count crossings along every source-to-boundary path via DFS *)
          let outputs = Dfg.outputs g in
          let rec walk id crossings =
            if crossings > 1 then ok := false
            else begin
              let succs = List.filter (Hashtbl.mem in_region) (Dfg.succs g id) in
              let leaves_region =
                List.mem id outputs
                || List.exists (fun u -> not (Hashtbl.mem in_region u)) (Dfg.succs g id)
              in
              if leaves_region then begin
                let total = crossings + if Hashtbl.mem crossing (id, -1) then 1 else 0 in
                if total <> 1 then ok := false
              end;
              List.iter
                (fun m ->
                  walk m (crossings + if Hashtbl.mem crossing (id, m) then 1 else 0))
                succs
            end
          in
          List.iter (fun s -> walk s 0) (Resbm.Region.muls r region)
        end
      done;
      !ok)

(* Test-only oracle: SMOPLC as it was before the template/solve split,
   building the whole flow network from the DFG on every call.  The
   template path must reproduce it bit for bit, certificates included. *)
let oracle_smoplc regioned ~region ~level =
  let g = regioned.Resbm.Region.dfg in
  let cost_of ~level id =
    let node = Dfg.node g id in
    match Op.cost_op node.Dfg.kind with
    | None -> 0.0
    | Some op -> float_of_int node.Dfg.freq *. Ckks.Cost_model.cost op ~level
  in
  let nodes = Resbm.Region.ct_members regioned region in
  let index = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.add index id i) nodes;
  let in_region id = Hashtbl.mem index id in
  let k = List.length nodes in
  let net = Graphlib.Maxflow.create (k + 2) in
  let s = k and t = k + 1 in
  let rs_cost id =
    float_of_int (Dfg.node g id).Dfg.freq *. Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level
  in
  let linc = Hashtbl.create 32 in
  let is_entry =
    let muls = Resbm.Region.muls regioned region in
    if muls <> [] then fun id -> List.mem id muls
    else fun id -> not (List.exists in_region (Dfg.preds g id))
  in
  List.iter
    (fun id ->
      let v =
        if is_entry id then 0.0
        else
          let own = cost_of ~level id -. cost_of ~level:(level - 1) id in
          List.fold_left
            (fun acc p -> acc +. Option.value (Hashtbl.find_opt linc p) ~default:0.0)
            own (Dfg.preds g id)
      in
      Hashtbl.add linc id v)
    nodes;
  let is_liveout id =
    List.mem id (Dfg.outputs g) || List.exists (fun u -> not (in_region u)) (Dfg.succs g id)
  in
  let forces_sink id =
    match (Dfg.node g id).Dfg.kind with
    | Op.Add_cc ->
        List.exists
          (fun p -> Op.produces_ct (Dfg.node g p).Dfg.kind && not (in_region p))
          (Dfg.preds g id)
    | _ -> false
  in
  List.iter
    (fun id ->
      let i = Hashtbl.find index id in
      if is_entry id then add_with_reverse net ~src:s ~dst:i ~cap:infinity;
      let internal_heads = List.filter in_region (Dfg.succs g id) in
      let degree = List.length internal_heads + if is_liveout id then 1 else 0 in
      if degree > 0 then begin
        let weight =
          if (Dfg.node g id).Dfg.kind = Op.Mul_cc then infinity
          else (rs_cost id +. Hashtbl.find linc id) /. float_of_int degree
        in
        List.iter
          (fun h ->
            add_with_reverse net ~src:i ~dst:(Hashtbl.find index h)
              ~cap:weight)
          internal_heads;
        if is_liveout id then add_with_reverse net ~src:i ~dst:t ~cap:weight
      end;
      if forces_sink id then Graphlib.Maxflow.add_edge net ~src:i ~dst:t ~cap:infinity)
    nodes;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  let node_at = Array.of_list nodes in
  let edges =
    List.filter_map
      (fun (u, v) ->
        if u = s then None
        else if v = t then Some (Resbm.Cut.Boundary_out { tail = node_at.(u) })
        else Some (Resbm.Cut.Internal { tail = node_at.(u); head = node_at.(v) }))
      mc.Graphlib.Maxflow.edges
  in
  let sink_side = List.filteri (fun i _ -> not mc.Graphlib.Maxflow.source_side.(i)) nodes in
  let node_of = Array.append node_at [| -1; -1 |] in
  { Resbm.Cut.edges; value = mc.Graphlib.Maxflow.value; sink_side; cert = Some cert; node_of }

(* Field-by-field equality, floats compared bit for bit. *)
let same_cut (a : Resbm.Cut.t) (b : Resbm.Cut.t) =
  let bits x = Int64.bits_of_float x in
  let same_arc (x : Graphlib.Maxflow.flow_arc) (y : Graphlib.Maxflow.flow_arc) =
    x.fa_src = y.fa_src && x.fa_dst = y.fa_dst
    && bits x.fa_cap = bits y.fa_cap
    && bits x.fa_flow = bits y.fa_flow
  in
  a.edges = b.edges
  && bits a.value = bits b.value
  && a.sink_side = b.sink_side && a.node_of = b.node_of
  &&
  match (a.cert, b.cert) with
  | Some ca, Some cb ->
      ca.cert_nodes = cb.cert_nodes && ca.cert_source = cb.cert_source
      && ca.cert_sink = cb.cert_sink
      && bits ca.cert_value = bits cb.cert_value
      && ca.cert_source_side = cb.cert_source_side
      && Array.length ca.cert_arcs = Array.length cb.cert_arcs
      && Array.for_all2 same_arc ca.cert_arcs cb.cert_arcs
  | None, None -> true
  | _ -> false

(* Every non-empty region at every level in [1, l_max]: the memoised run,
   a cold run and the oracle agree.  Returns the mismatching pairs. *)
let smoplc_mismatches r =
  let memo = Resbm.Smoplc.create_memo () in
  let bad = ref [] in
  for region = 0 to r.Resbm.Region.count - 1 do
    if Resbm.Region.ct_members r region <> [] then
      for level = 1 to prm.Ckks.Params.l_max do
        let cold = Resbm.Smoplc.run r ~region ~level in
        if not (same_cut cold (oracle_smoplc r ~region ~level)) then
          bad := (region, level) :: !bad;
        ignore (Resbm.Smoplc.run ~memo r ~region ~level);
        if not (same_cut cold (Resbm.Smoplc.run ~memo r ~region ~level)) then
          bad := (region, -level) :: !bad
      done
  done;
  List.rev !bad

let smoplc_matches_oracle_on_models () =
  List.iter
    (fun model ->
      let r = Resbm.Region.build (Nn.Lowering.lower model).Nn.Lowering.dfg in
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        (model.Nn.Model.name ^ ": (region, level) mismatches")
        [] (smoplc_mismatches r))
    [ Nn.Model.resnet20; Nn.Model.alexnet; Nn.Model.tiny ]

let smoplc_matches_oracle_random =
  qcheck ~count:40 "smoplc template solve equals the per-call oracle"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params -> smoplc_mismatches (Resbm.Region.build (build_random_dfg params)) = [])

(* A memo hit is free: no [smoplc.cuts], no max-flow run. *)
let smoplc_memo_hit_is_free () =
  let g, _ = conv_region_graph ~channels:16 in
  let r = Resbm.Region.build g in
  let memo = Resbm.Smoplc.create_memo () in
  let p = Obs.Profile.create () in
  Obs.with_profile p (fun () ->
      for _ = 1 to 3 do
        ignore (Resbm.Smoplc.run ~memo r ~region:1 ~level:2)
      done;
      ignore (Resbm.Smoplc.run ~memo r ~region:1 ~level:3));
  checki "smoplc.cuts" 2 (Obs.Profile.counter p "smoplc.cuts");
  checki "maxflow.runs" 2 (Obs.Profile.counter p "maxflow.runs")

(* SMOPLC solves each distinct (shape, entry level) with a rescale
   exactly once per region-solution cache. *)
let smoplc_cut_once_per_shape_level () =
  let g = (Nn.Lowering.lower Nn.Model.resnet20).Nn.Lowering.dfg in
  let r = Resbm.Region.build g in
  (* Every region, every entry level, 0-2 rescales, asked twice of one
     cache: one solve per distinct (shape, entry level, rescales), and
     one SMOPLC cut per distinct (shape, entry level) with a rescale. *)
  let cache = Resbm.Region_eval.create_cache prm and p = Obs.Profile.create () in
  let asked = ref [] in
  Obs.with_profile p (fun () ->
      for _ = 1 to 2 do
        for region = 0 to r.Resbm.Region.count - 1 do
          for entry_level = 0 to prm.Ckks.Params.l_max do
            for rescales = 0 to min 2 entry_level do
              asked := (r.Resbm.Region.shape_ids.(region), entry_level, rescales) :: !asked;
              ignore
                (Resbm.Region_eval.latency cache r ~smo_mode:Resbm.Region_eval.Smo_min_cut
                   ~bts_mode:Resbm.Region_eval.Bts_min_cut ~region ~entry_level ~rescales
                   ~bts:None)
            done
          done
        done
      done);
  let keys = List.sort_uniq compare !asked in
  let pairs =
    List.sort_uniq compare
      (List.filter_map
         (fun (sh, level, rescales) -> if rescales > 0 then Some (sh, level) else None)
         keys)
  in
  checki "region_eval.computes = distinct (shape, entry level, rescales)" (List.length keys)
    (Obs.Profile.counter p "region_eval.computes");
  checki "smoplc.cuts = distinct (shape, entry level) pairs" (List.length pairs)
    (Obs.Profile.counter p "smoplc.cuts")

(* --- Region_eval: shape-cached solutions against cold solves --------------- *)

let same_result (a : Resbm.Region_eval.result) (b : Resbm.Region_eval.result) =
  Int64.bits_of_float a.latency_ms = Int64.bits_of_float b.latency_ms
  && Option.equal same_cut a.smo_cut b.smo_cut
  && Option.equal same_cut a.bts_cut b.bts_cut
  && a.bts_subgraph = b.bts_subgraph

(* A solution mapped back to a region names that region's nodes only:
   members, plus the producers feeding them for boundary helper nodes. *)
let names_region_nodes r region (res : Resbm.Region_eval.result) =
  let members = Array.to_list (Resbm.Region.members r region) in
  let mem id = List.mem id members in
  let feeds id =
    mem id || List.exists (fun m -> List.mem id (Dfg.preds r.Resbm.Region.dfg m)) members
  in
  let cut_ok (c : Resbm.Cut.t) =
    List.for_all
      (function
        | Resbm.Cut.Internal { tail; head } -> mem tail && mem head
        | Resbm.Cut.Boundary_in { head } -> mem head
        | Resbm.Cut.Boundary_out { tail } -> mem tail)
      c.edges
    && List.for_all mem c.sink_side
    && Array.for_all (fun n -> n < 0 || feeds n) c.node_of
  in
  Option.fold ~none:true ~some:cut_ok res.smo_cut
  && Option.fold ~none:true ~some:cut_ok res.bts_cut
  && List.for_all mem res.bts_subgraph

(* Every region over a grid of candidate plans and all six mode pairs: the
   shape-cached eval (one cache for the whole graph, so repeated shapes
   are served from another region's solution) and a cold solve on a
   fresh cache per call must agree exactly — or raise the same
   exception.  The cold solution must name only the region's own nodes,
   and its SMOPLC cut must equal the id-based per-call oracle's.  Returns the mismatching
   (region, entry level, rescales). *)
let region_eval_mismatches r =
  let open Resbm.Region_eval in
  let cache = create_cache prm in
  let bad = ref [] in
  for region = 0 to r.Resbm.Region.count - 1 do
    List.iter
      (fun (entry_level, rescales, bts) ->
        List.iter
          (fun (smo_mode, bts_mode) ->
            let eval cache =
              match eval cache r ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts with
              | res -> Ok res
              | exception e -> Error (Printexc.to_string e)
            in
            let cold = eval (create_cache prm) in
            let cold_ok =
              match cold with
              | Error _ -> true
              | Ok res ->
                  names_region_nodes r region res
                  &&
                  match (smo_mode, res.smo_cut) with
                  | Smo_min_cut, Some cut ->
                      same_cut cut (oracle_smoplc r ~region ~level:entry_level)
                  | _ -> true
            in
            let agrees = function
              | Ok a -> (match cold with Ok b -> same_result a b | Error _ -> false)
              | Error e -> cold = Error e
            in
            if not (cold_ok && agrees (eval cache)) then
              bad := (region, entry_level, rescales) :: !bad)
          [
            (Smo_min_cut, Bts_min_cut);
            (Smo_min_cut, Bts_region_end);
            (Smo_eva, Bts_min_cut);
            (Smo_eva, Bts_region_end);
            (Smo_pars, Bts_min_cut);
            (Smo_pars, Bts_region_end);
          ])
      [
        (1, 0, None); (1, 1, None); (1, 1, Some 3); (2, 2, Some 1); (3, 1, Some 12);
        (9, 2, None); (16, 1, Some 16); (16, 0, Some 5); (0, 1, None);
      ]
  done;
  List.sort_uniq compare !bad

let region_eval_matches_cold_on_models () =
  List.iter
    (fun model ->
      let r = Resbm.Region.build (Nn.Lowering.lower model).Nn.Lowering.dfg in
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
        (model.Nn.Model.name ^ ": (region, entry level, rescales) mismatches")
        [] (region_eval_mismatches r))
    [ Nn.Model.resnet20; Nn.Model.squeezenet ]

let region_eval_matches_cold_random =
  qcheck ~count:40 "shape-cached region eval equals a cold solve"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params -> region_eval_mismatches (Resbm.Region.build (build_random_dfg params)) = [])

(* --- BTSPLC ---------------------------------------------------------------- *)

let bts_cut_groups_shared_rescale () =
  (* rotations after a shared rescale: a single bootstrap after the
     rescale must beat bootstrapping every rotation *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc g x x in
  let r1 = Dfg.rotate g m 1 in
  let r2 = Dfg.rotate g m 2 in
  let r3 = Dfg.rotate g m 3 in
  (* consumers outside the region *)
  let o1 = Dfg.mul_cc g r1 r2 in
  let o2 = Dfg.mul_cc g r3 r3 in
  Dfg.set_outputs g [ o1; o2 ];
  let reg = Resbm.Region.build g in
  let subgraph = [ r1; r2; r3 ] in
  let cut = Resbm.Btsplc.run reg ~lbts:4 ~subgraph in
  (* all cut edges must be boundary-in (bootstrap directly after the
     shared producer) *)
  checkb "boundary-in cut" true
    (List.for_all
       (function Resbm.Cut.Boundary_in _ -> true | _ -> false)
       cut.Resbm.Cut.edges);
  checkb "cheaper than three bootstraps" true
    (cut.Resbm.Cut.value
    < 3.0 *. Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:4)

let bts_cut_rejects_bad_args () =
  let g = fig3_poly () in
  let reg = Resbm.Region.build g in
  checkb "lbts 0 rejected" true
    (match Resbm.Btsplc.run reg ~lbts:0 ~subgraph:[ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "empty subgraph rejected" true
    (match Resbm.Btsplc.run reg ~lbts:1 ~subgraph:[] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- SCALEMGR ------------------------------------------------------------- *)

let scalemgr_fig1_sequences () =
  let g = fig1_block () in
  let r = Resbm.Region.build g in
  let p = Ckks.Params.fig1 in
  (* from the first conv region to the last: every multiplication region
     rescales once under q = q_w *)
  let sp =
    Resbm.Scalemgr.plan r p ~src:1 ~dst:6 ~src_entry_scale:40 ~bts_at_src:true
  in
  check (Alcotest.list Alcotest.int) "every region rescales" [ 1; 2; 3; 4; 5; 6 ]
    sp.Resbm.Scalemgr.rescaling;
  checki "levels consumed beyond src" 5 sp.Resbm.Scalemgr.lbts;
  Array.iter
    (fun info ->
      checki "peak is 2q" 80 info.Resbm.Scalemgr.peak_scale;
      checki "out back to q" 40 info.Resbm.Scalemgr.out_scale)
    sp.Resbm.Scalemgr.infos

let scalemgr_no_mul_regions_pass_through () =
  let g = fig3_poly () in
  let r = Resbm.Region.build g in
  let sp =
    Resbm.Scalemgr.plan r prm ~src:0 ~dst:0 ~src_entry_scale:56 ~bts_at_src:false
  in
  checki "no rescale in the input region" 0 sp.Resbm.Scalemgr.lbts;
  checki "scale unchanged" 56 sp.Resbm.Scalemgr.infos.(0).Resbm.Scalemgr.out_scale

let scalemgr_bts_resets_scale () =
  let g = fig1_block () in
  let r = Resbm.Region.build g in
  let p = Ckks.Params.fig1 in
  let with_bts =
    Resbm.Scalemgr.plan r p ~src:1 ~dst:2 ~src_entry_scale:40 ~bts_at_src:true
  in
  (* after the bootstrap at src, region 2 sees scale q *)
  checki "entry scale after bootstrap" 40
    with_bts.Resbm.Scalemgr.infos.(1).Resbm.Scalemgr.entry_scale

let scalemgr_multi_rescale () =
  (* a ciphertext-ciphertext multiplication on an inflated scale needs two
     rescales in a single region *)
  let g = Dfg.create () in
  let x = Dfg.input g ~scale_bits:112 ~level:4 "x" in
  let m = Dfg.mul_cc g x x in
  Dfg.set_outputs g [ m ];
  let r = Resbm.Region.build g in
  let sp =
    Resbm.Scalemgr.plan r prm ~src:1 ~dst:1 ~src_entry_scale:112 ~bts_at_src:false
  in
  (* eligibility is scale >= q*q_w, so 224 -> 168 -> 112 -> 56: the 112
     step is still eligible *)
  checki "three rescales" 3 sp.Resbm.Scalemgr.infos.(0).Resbm.Scalemgr.rescales;
  checki "peak doubled" 224 sp.Resbm.Scalemgr.infos.(0).Resbm.Scalemgr.peak_scale;
  checki "out scale" 56 sp.Resbm.Scalemgr.infos.(0).Resbm.Scalemgr.out_scale

let scalemgr_early_rescaling =
  qcheck ~count:30 "rescaling fires as soon as the scale is eligible"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      let last = r.Resbm.Region.count - 1 in
      let sp =
        Resbm.Scalemgr.plan r prm ~src:0 ~dst:last ~src_entry_scale:56 ~bts_at_src:false
      in
      Array.for_all
        (fun info ->
          (* whenever eligible, a rescale happened: out scale stays below
             q*q_w *)
          info.Resbm.Scalemgr.out_scale < 112)
        sp.Resbm.Scalemgr.infos)

let suite =
  [
    case "smoplc: produces a cut" smo_cut_exists;
    case "smoplc: prefers the frequency-1 tail" smo_cut_prefers_cheap_tail;
    case "smoplc: never splits mul/relin" smo_cut_respects_relin;
    paths_cross_cut_once;
    case "btsplc: groups a shared rescale" bts_cut_groups_shared_rescale;
    case "btsplc: argument validation" bts_cut_rejects_bad_args;
    case "scalemgr: Figure 1 sequence" scalemgr_fig1_sequences;
    case "scalemgr: mul-free regions pass through" scalemgr_no_mul_regions_pass_through;
    case "scalemgr: bootstrap resets scale" scalemgr_bts_resets_scale;
    case "scalemgr: stacked rescales" scalemgr_multi_rescale;
    scalemgr_early_rescaling;
    case "smoplc: equals the per-call oracle on ResNet-20, AlexNet, Tiny"
      smoplc_matches_oracle_on_models;
    smoplc_matches_oracle_random;
    case "smoplc: a memo hit counts no cut and runs no max-flow" smoplc_memo_hit_is_free;
    case "smoplc: one cut per distinct (shape, entry level)" smoplc_cut_once_per_shape_level;
  ]

(* Theorem 1 (practical form): SMOPLC's min-cut region latency does not
   lose to EVA's eager or PARS's lazy forced placements beyond the error
   of Algorithm 4's weight model (out-degree division, reconvergent
   double counting). *)
let min_cut_dominates_forced_placements =
  qcheck ~count:30 "min-cut region latency within 10% of EVA/PARS or better"
    QCheck2.Gen.(pair (random_dfg_gen ~max_nodes:50 ~max_depth:6) (int_range 1 8))
    (fun (params, entry_level) ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      let cache = Resbm.Region_eval.create_cache prm in
      let ok = ref true in
      for region = 1 to r.Resbm.Region.count - 1 do
        if Resbm.Region.muls r region <> [] then begin
          let eval smo_mode =
            (Resbm.Region_eval.eval cache r ~smo_mode
               ~bts_mode:Resbm.Region_eval.Bts_min_cut ~region ~entry_level ~rescales:1
               ~bts:None)
              .Resbm.Region_eval.latency_ms
          in
          let mincut = eval Resbm.Region_eval.Smo_min_cut in
          if
            mincut > (1.1 *. eval Resbm.Region_eval.Smo_eva) +. 1e-6
            || mincut > (1.1 *. eval Resbm.Region_eval.Smo_pars) +. 1e-6
          then ok := false
        end
      done;
      !ok)

(* Theorem 2 counterpart: the bootstrap min-cut never loses to the
   region-end placement Fhelipe and DaCapo use. *)
let bts_min_cut_dominates_region_end =
  qcheck ~count:30 "bootstrap min-cut within 10% of region-end or better"
    QCheck2.Gen.(pair (random_dfg_gen ~max_nodes:50 ~max_depth:6) (int_range 2 12))
    (fun (params, lbts) ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      let cache = Resbm.Region_eval.create_cache prm in
      let ok = ref true in
      for region = 1 to r.Resbm.Region.count - 1 do
        if Resbm.Region.muls r region <> [] then begin
          let eval bts_mode =
            (Resbm.Region_eval.eval cache r ~smo_mode:Resbm.Region_eval.Smo_min_cut
               ~bts_mode ~region ~entry_level:1 ~rescales:1 ~bts:(Some lbts))
              .Resbm.Region_eval.latency_ms
          in
          (* The edge weights of Algorithm 5 approximate the real insertion
             cost (in-degree division, reconvergent double counting), so the
             min-cut can lose to the end placement by the approximation
             error; require it within 10 % or better. *)
          if
            eval Resbm.Region_eval.Bts_min_cut
            > 1.1 *. eval Resbm.Region_eval.Bts_region_end +. 1e-6
          then ok := false
        end
      done;
      !ok)

(* --- BTSPLC templates: re-solves against fresh networks ---------------------- *)

(* The level-0 subgraphs BTSPLC is asked about on a shape: all its
   ciphertext members, and the sink side of its SMOPLC cut at every level
   in [1, l_max]. *)
let btsplc_subgraphs (shape : Resbm.Region.shape) =
  let members =
    List.filter
      (fun s -> Op.produces_ct shape.Resbm.Region.slots.(s).Resbm.Region.kind)
      (List.init shape.Resbm.Region.members Fun.id)
  in
  if members = [] then []
  else
    members
    :: List.init prm.Ckks.Params.l_max (fun i ->
           (Resbm.Smoplc.cut shape ~level:(i + 1)).Resbm.Cut.sink_side)
    |> List.filter (( <> ) [])
    |> List.sort_uniq compare

(* Every distinct shape of [r] and each of its subgraphs, every target in
   [1, l_max] solved on one shared memo in a shuffled order: each template
   re-solve equals the fresh-network oracle bit for bit, and asking again
   returns the memoised cut itself.  Returns the mismatching (shape index,
   target) pairs. *)
let btsplc_template_mismatches r =
  let memo = Resbm.Btsplc.create_memo () and bad = ref [] in
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun region id ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        let shape = Resbm.Region.shape r region in
        let rng = Random.State.make [| id; region |] in
        List.iter
          (fun subgraph ->
            let order =
              List.init prm.Ckks.Params.l_max succ
              |> List.map (fun t -> (Random.State.bits rng, t))
              |> List.sort compare |> List.map snd
            in
            List.iter
              (fun lbts ->
                let cut = Resbm.Btsplc.cut ~memo shape ~lbts ~subgraph in
                if
                  not
                    (same_cut cut (btsplc_oracle shape ~lbts ~subgraph)
                    && Resbm.Btsplc.cut ~memo shape ~lbts ~subgraph == cut)
                then bad := (id, lbts) :: !bad)
              order)
          (btsplc_subgraphs shape)
      end)
    r.Resbm.Region.shape_ids;
  List.sort_uniq compare !bad

let btsplc_template_matches_oracle_on_models () =
  List.iter
    (fun model ->
      let r = Resbm.Region.build (Nn.Lowering.lower model).Nn.Lowering.dfg in
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        (model.Nn.Model.name ^ ": (shape, target) mismatches")
        [] (btsplc_template_mismatches r))
    (Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ])

let btsplc_template_matches_oracle_random =
  qcheck ~count:40 "btsplc template re-solves equal fresh networks, shuffled targets"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params ->
      btsplc_template_mismatches (Resbm.Region.build (build_random_dfg params)) = [])

(* A memo hit is free: no [btsplc.cuts], no max-flow run, and a
   physically shared certificate. *)
let btsplc_memo_hit_is_free () =
  let g, _ = conv_region_graph ~channels:16 in
  let r = Resbm.Region.build g in
  let shape = Resbm.Region.shape r 1 in
  let subgraph = btsplc_subgraphs shape |> List.hd in
  let memo = Resbm.Btsplc.create_memo () and p = Obs.Profile.create () in
  let certs =
    Obs.with_profile p (fun () ->
        let certs =
          List.init 3 (fun _ -> (Resbm.Btsplc.cut ~memo shape ~lbts:2 ~subgraph).Resbm.Cut.cert)
        in
        ignore (Resbm.Btsplc.cut ~memo shape ~lbts:3 ~subgraph);
        certs)
  in
  checki "btsplc.cuts" 2 (Obs.Profile.counter p "btsplc.cuts");
  checki "maxflow.runs" 2 (Obs.Profile.counter p "maxflow.runs");
  checkb "one certificate" true
    (match certs with
    | [ Some a; Some b; Some c ] -> a == b && b == c
    | _ -> false)

(* --- Deferred certificates --------------------------------------------------- *)

(* Every certificate a plan keeps was built from its solve's snapshot
   after later solves refilled the shared template networks; it must equal
   the certificate an eager solve of the same cut on a fresh network
   exports (the id-based SMOPLC oracle, the BTSPLC oracle), and pass the
   independent checker.  Certificates are built once per distinct kept
   cut: two kept cuts share a certificate exactly when they are the same
   (shape, entry level) SMOPLC cut or the same (shape, subgraph, target)
   BTSPLC cut. *)
let deferred_certificates_match_eager () =
  List.iter
    (fun model ->
      let r = Resbm.Region.build (Nn.Lowering.lower model).Nn.Lowering.dfg in
      List.iter
        (fun l_max ->
          let prm = Ckks.Params.at_l_max l_max in
          List.iter
            (fun (m : Resbm.Variants.manager) ->
              let where region what =
                Printf.sprintf "%s %s l_max %d region %d: %s" model.Nn.Model.name
                  m.Resbm.Variants.name l_max region what
              in
              match Resbm.Btsmgr.plan ~config:m.Resbm.Variants.config r prm with
              | exception Resbm.Btsmgr.No_plan _ -> ()
              | plan ->
                  let kept = ref [] in
                  let keep region pass key (cut : Resbm.Cut.t) eager =
                    match cut.Resbm.Cut.cert with
                    | None -> ()
                    | Some c ->
                        checkb (where region (pass ^ " equals the eager solve")) true
                          (same_cut cut eager);
                        checkb (where region (pass ^ " certificate checks")) true
                          (Analysis.Certify.ok (Analysis.Certify.check ~pass ~region c));
                        kept := (key, c) :: !kept
                  in
                  Array.iteri
                    (fun region (a : Resbm.Btsmgr.region_action) ->
                      let shape_id = r.Resbm.Region.shape_ids.(region) in
                      let ids = Resbm.Region.slots r region in
                      let slot id =
                        let s = ref 0 in
                        while ids.(!s) <> id do
                          incr s
                        done;
                        !s
                      in
                      Option.iter
                        (fun cut ->
                          keep region "smoplc"
                            (`Smo (shape_id, a.Resbm.Btsmgr.entry_level))
                            cut
                            (oracle_smoplc r ~region ~level:a.Resbm.Btsmgr.entry_level))
                        a.Resbm.Btsmgr.smo_cut;
                      match a.Resbm.Btsmgr.bts with
                      | Some { Resbm.Btsmgr.target; cut = Some cut; subgraph } ->
                          let subgraph = List.map slot subgraph in
                          keep region "btsplc"
                            (`Bts (shape_id, subgraph, target))
                            cut
                            (Resbm.Cut.relabel (Array.get ids)
                               (btsplc_oracle (Resbm.Region.shape r region) ~lbts:target
                                  ~subgraph))
                      | _ -> ())
                    plan.Resbm.Btsmgr.actions;
                  List.iter
                    (fun (k1, c1) ->
                      List.iter
                        (fun (k2, c2) ->
                          if k1 = k2 <> (c1 == c2) then
                            Alcotest.failf "%s %s l_max %d: certificates shared %b for keys equal %b"
                              model.Nn.Model.name m.Resbm.Variants.name l_max (c1 == c2) (k1 = k2))
                        !kept)
                    !kept)
            Resbm.Variants.all)
        [ 3; 8; 16 ])
    Nn.Model.[ resnet20; squeezenet; lenet5; tiny ]

(* --- The flat latency table ---------------------------------------------------- *)

(* A table warmed over a grid of candidate plans answers sampled requests
   (any modes, region, entry level, rescales and target) bit for bit as an
   uncached solve on a fresh cache does.  Requests the region cannot run
   (a negative entry level, more rescales than the entry level) raise
   [Infeasible] every time they are asked; levels past the cache's range
   are refused. *)
let latency_table_matches_uncached () =
  let open Resbm.Region_eval in
  let modes =
    [|
      (Smo_min_cut, Bts_min_cut); (Smo_min_cut, Bts_region_end); (Smo_eva, Bts_min_cut);
      (Smo_eva, Bts_region_end); (Smo_pars, Bts_min_cut); (Smo_pars, Bts_region_end);
    |]
  in
  let l_max = prm.Ckks.Params.l_max in
  List.iter
    (fun model ->
      let r = Resbm.Region.build (Nn.Lowering.lower model).Nn.Lowering.dfg in
      let cache = create_cache prm in
      let ask cache (smo_mode, bts_mode) ~region ~entry_level ~rescales ~bts =
        match latency cache r ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts with
        | l -> Ok (Int64.bits_of_float l)
        | exception Infeasible m -> Error m
      in
      for region = 0 to r.Resbm.Region.count - 1 do
        for entry_level = 0 to l_max do
          for rescales = 0 to min 2 entry_level do
            List.iter
              (fun bts ->
                ignore (ask cache modes.(0) ~region ~entry_level ~rescales ~bts);
                ignore (ask cache modes.(region mod 6) ~region ~entry_level ~rescales ~bts))
              [ None; Some 1; Some (max 1 (entry_level - rescales)); Some l_max ]
          done
        done
      done;
      let rng = Random.State.make [| 40 |] in
      for _ = 1 to 400 do
        let region = Random.State.int rng r.Resbm.Region.count in
        let entry_level = Random.State.int rng (l_max + 1) in
        let rescales = Random.State.int rng (entry_level + 1) in
        let bts = if Random.State.bool rng then None else Some (1 + Random.State.int rng l_max) in
        let m = modes.(Random.State.int rng 6) in
        let warm = ask cache m ~region ~entry_level ~rescales ~bts in
        if warm <> ask (create_cache prm) m ~region ~entry_level ~rescales ~bts then
          Alcotest.failf "%s region %d entry %d rescales %d: warm table differs"
            model.Nn.Model.name region entry_level rescales
      done;
      for region = 0 to r.Resbm.Region.count - 1 do
        if Resbm.Region.ct_members r region <> [] then
          List.iter
            (fun (entry_level, rescales) ->
              for _ = 1 to 2 do
                checkb
                  (Printf.sprintf "region %d entry %d rescales %d is infeasible" region
                     entry_level rescales)
                  true
                  (match ask cache modes.(0) ~region ~entry_level ~rescales ~bts:None with
                  | Error _ -> true
                  | Ok _ -> false)
              done)
            [ (-1, 0); (-1, 1); (0, 1); (3, 4) ]
      done;
      checkb "entry level past the range refused" true
        (match ask cache modes.(0) ~region:1 ~entry_level:(l_max + 1) ~rescales:0 ~bts:None with
        | _ -> false
        | exception Invalid_argument _ -> true))
    Nn.Model.[ resnet20; squeezenet ]

let theorem_suite =
  [ min_cut_dominates_forced_placements; bts_min_cut_dominates_region_end ]

let suite =
  suite @ theorem_suite
  @ [
      case "region_eval: shape-cached eval equals a cold solve on ResNet-20, SqueezeNet"
        region_eval_matches_cold_on_models;
      region_eval_matches_cold_random;
      case "btsplc: template re-solves equal fresh networks on every paper model"
        btsplc_template_matches_oracle_on_models;
      btsplc_template_matches_oracle_random;
      case "btsplc: a memo hit counts no cut and runs no max-flow" btsplc_memo_hit_is_free;
      case "certificates: deferred equals eager, one per distinct kept cut"
        deferred_certificates_match_eager;
      case "region_eval: warm latency table equals uncached solves"
        latency_table_matches_uncached;
    ]
