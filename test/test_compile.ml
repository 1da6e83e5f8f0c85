(* End-to-end compilation: Plan application, Driver, Variants. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

let compiled_graphs_are_legal =
  qcheck ~count:40 "managed graphs pass the scale checker"
    (random_dfg_gen ~max_nodes:60 ~max_depth:14)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | managed, _ -> Result.is_ok (Scale_check.run prm managed)
      | exception Resbm.Btsmgr.No_plan _ -> true)

let all_variants_produce_legal_graphs =
  qcheck ~count:15 "every manager produces a legal graph"
    (random_dfg_gen ~max_nodes:40 ~max_depth:10)
    (fun params ->
      let g = build_random_dfg params in
      List.for_all
        (fun mgr ->
          match Resbm.Variants.compile mgr prm g with
          | managed, _ -> Result.is_ok (Scale_check.run prm managed)
          | exception Resbm.Btsmgr.No_plan _ -> true)
        Resbm.Variants.all)

(* Legalize trusts the levels Plan.apply's repair pass propagated; they
   must be Scale_check's on every live ciphertext, and Scale_check's
   points must be the Table 1 oracle's.  Returns the repair count with
   the verdict, [(true, 0)] when no plan exists. *)
let apply_levels_agree r p (mgr : Resbm.Variants.manager) =
  match Resbm.Btsmgr.plan ~config:mgr.Resbm.Variants.config r p with
  | exception Resbm.Btsmgr.No_plan _ -> (true, 0)
  | plan ->
      let o = Resbm.Plan.apply r p plan in
      let info = Scale_check.infer p o.Resbm.Plan.dfg in
      let oracle = table1_oracle p o.Resbm.Plan.dfg in
      ( List.for_all
          (fun (n : Dfg.node) ->
            let id = n.Dfg.id in
            (not info.(id).Scale_check.is_ct)
            || info.(id) = oracle.(id)
               && (id >= Array.length o.Resbm.Plan.levels
                  || o.Resbm.Plan.levels.(id) = info.(id).Scale_check.level))
          (Dfg.live_nodes o.Resbm.Plan.dfg),
        o.Resbm.Plan.repair_bootstraps )

let short_budget l = Ckks.Params.at_l_max l

let apply_levels_match_inference =
  qcheck ~count:30 "apply's propagated levels equal Scale_check.infer's"
    (random_dfg_gen ~max_nodes:40 ~max_depth:12)
    (fun params ->
      let r = Resbm.Region.build (build_random_dfg params) in
      List.for_all
        (fun l ->
          List.for_all
            (fun mgr -> fst (apply_levels_agree r (short_budget l) mgr))
            Resbm.Variants.all)
        [ 4; 7; 16 ])

(* Random DFGs have no residual spans, so no repairs: ResNet-20 under
   short budgets repairs under several managers. *)
let apply_levels_match_inference_with_repairs () =
  let r = Resbm.Region.build (Nn.Lowering.lower Nn.Model.resnet20).Nn.Lowering.dfg in
  let repairs = ref 0 in
  List.iter
    (fun l ->
      List.iter
        (fun (mgr : Resbm.Variants.manager) ->
          let ok, n = apply_levels_agree r (short_budget l) mgr in
          checkb (Printf.sprintf "%s at l_max %d" mgr.Resbm.Variants.name l) true ok;
          repairs := !repairs + n)
        Resbm.Variants.all)
    [ 4; 6 ];
  checkb "repairs exercised" true (!repairs > 0)

let compiled_graphs_compute_the_same_function =
  qcheck ~count:20 "management preserves program semantics"
    (random_dfg_gen ~max_nodes:30 ~max_depth:8)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | managed, _ ->
          let dim = 4 in
          let input = input_env ~dim 17L in
          let consts = const_env ~dim in
          let plain_before = Nn.Plain_eval.run g ~input:(fun _ -> input) ~consts in
          let plain_after = Nn.Plain_eval.run managed ~input:(fun _ -> input) ~consts in
          List.for_all2
            (fun a b ->
              Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b)
            plain_before plain_after
      | exception Resbm.Btsmgr.No_plan _ -> true)

let encrypted_execution_matches_plain =
  qcheck ~count:12 "simulated encrypted execution tracks the plain result"
    (random_dfg_gen ~max_nodes:25 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | managed, _ ->
          let dim = 4 in
          let input = Array.map (fun v -> 0.5 *. v) (input_env ~dim 23L) in
          let consts name = Array.map (fun v -> 0.5 *. v) (const_env ~dim name) in
          let plain = Nn.Plain_eval.run managed ~input:(fun _ -> input) ~consts in
          let ev = Ckks.Evaluator.create prm in
          let result =
            Interp.run ev managed { Interp.inputs = [ ("x", input) ]; consts }
          in
          List.for_all2
            (fun ct expected ->
              let d = Ckks.Evaluator.decrypt ev ct in
              Array.for_all2
                (fun x y ->
                  (* values can grow multiplicatively; compare relative *)
                  Float.abs (x -. y) < 1e-4 *. (1.0 +. Float.abs y))
                d expected)
            result.Interp.outputs plain
      | exception Resbm.Btsmgr.No_plan _ -> true)

let fig1_managed_runs_end_to_end () =
  let p = Ckks.Params.fig1 in
  let g = fig1_block () in
  let managed, report = Resbm.Driver.compile p g in
  checkb "legal" true (Result.is_ok (Scale_check.run p managed));
  checki "two bootstraps" 2 report.Resbm.Report.stats.Stats.bootstrap_count;
  let dim = 8 in
  let input = Array.map (fun v -> 0.5 *. v) (input_env ~dim 29L) in
  let consts name = Array.map (fun v -> 0.5 *. v) (const_env ~dim name) in
  let ev = Ckks.Evaluator.create p in
  let result = Interp.run ev managed { Interp.inputs = [ ("x", input) ]; consts } in
  let plain = Nn.Plain_eval.run managed ~input:(fun _ -> input) ~consts in
  (match (result.Interp.outputs, plain) with
  | [ ct ], [ expected ] ->
      let d = Ckks.Evaluator.decrypt ev ct in
      Array.iteri
        (fun i v ->
          checkb "simulated ~= plain" true
            (Float.abs (v -. expected.(i)) < 1e-3 *. (1.0 +. Float.abs expected.(i))))
        d
  | _ -> Alcotest.fail "single output expected")

let resbm_beats_or_ties_fhelipe_on_models () =
  List.iter
    (fun model ->
      let lowered = Nn.Lowering.lower model in
      let g = lowered.Nn.Lowering.dfg in
      let _, resbm = Resbm.Variants.(compile resbm) prm g in
      let _, fhelipe = Resbm.Variants.(compile fhelipe) prm g in
      checkb
        (Printf.sprintf "%s: ReSBM <= Fhelipe" model.Nn.Model.name)
        true
        (resbm.Resbm.Report.latency_ms <= fhelipe.Resbm.Report.latency_ms))
    [ Nn.Model.resnet20; Nn.Model.alexnet; Nn.Model.squeezenet ]

let equal_bootstrap_counts_with_fhelipe () =
  (* Table 5's precondition: ReSBM and Fhelipe insert the same number of
     bootstraps per model *)
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let g = lowered.Nn.Lowering.dfg in
  let _, resbm = Resbm.Variants.(compile resbm) prm g in
  let _, fhelipe = Resbm.Variants.(compile fhelipe) prm g in
  checki "same bootstrap count" fhelipe.Resbm.Report.stats.Stats.bootstrap_count
    resbm.Resbm.Report.stats.Stats.bootstrap_count

let resbm_uses_lower_bootstrap_levels () =
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let g = lowered.Nn.Lowering.dfg in
  let _, resbm = Resbm.Variants.(compile resbm) prm g in
  let _, fhelipe = Resbm.Variants.(compile fhelipe) prm g in
  let below_max levels =
    List.fold_left
      (fun acc (l, c) -> if l < prm.Ckks.Params.l_max then acc + c else acc)
      0 levels
  in
  checkb "ReSBM bootstraps below l_max" true
    (below_max resbm.Resbm.Report.stats.Stats.bootstrap_levels > 0);
  checki "Fhelipe always at l_max" 0
    (below_max fhelipe.Resbm.Report.stats.Stats.bootstrap_levels)

let fhelipe_executes_more_rescales () =
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let g = lowered.Nn.Lowering.dfg in
  let _, resbm = Resbm.Variants.(compile resbm) prm g in
  let _, fhelipe = Resbm.Variants.(compile fhelipe) prm g in
  checkb "Table 4 shape" true
    (fhelipe.Resbm.Report.stats.Stats.executed_rescales
    > 5 * resbm.Resbm.Report.stats.Stats.executed_rescales)

let l_max_sweep_increases_bootstraps () =
  (* Figure 7 shape: lowering l_max inserts more bootstraps and raises
     latency *)
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let g = lowered.Nn.Lowering.dfg in
  let run l_max =
    let p = Ckks.Params.at_l_max l_max in
    let _, r = Resbm.Variants.(compile resbm) p g in
    (r.Resbm.Report.stats.Stats.bootstrap_count, r.Resbm.Report.latency_ms)
  in
  let b16, l16 = run 16 and b10, l10 = run 10 in
  checkb "more bootstraps at l_max 10" true (b10 > b16);
  checkb "higher latency at l_max 10" true (l10 > l16)

let report_consistency () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let g = lowered.Nn.Lowering.dfg in
  let managed, report = Resbm.Variants.(compile resbm) prm g in
  check_float ~eps:1e-6 "report latency matches graph"
    (Latency.total prm managed) report.Resbm.Report.latency_ms;
  checkb "compile time measured" true (report.Resbm.Report.compile_ms > 0.0);
  checki "stats node count" (List.length (Dfg.live_nodes managed)) report.Resbm.Report.stats.Stats.nodes

let variants_lookup () =
  checkb "by_name resbm" true (Resbm.Variants.by_name "resbm" <> None);
  checkb "by_name Fhelipe" true (Resbm.Variants.by_name "FHELIPE" <> None);
  checkb "by_name unknown" true (Resbm.Variants.by_name "nope" = None);
  List.iter
    (fun spelling ->
      checkb ("by_name " ^ spelling) true
        (Option.map (fun m -> m.Resbm.Variants.name) (Resbm.Variants.by_name spelling)
        = Some "ReSBM_pm"))
    [ "resbm-pm"; "ReSBM_PM" ];
  checkb "by_name resbm-max" true
    (Option.map (fun m -> m.Resbm.Variants.name) (Resbm.Variants.by_name "resbm-max")
    = Some "ReSBM_max");
  checki "all has five managers" 5 (List.length Resbm.Variants.all)

let suite =
  [
    compiled_graphs_are_legal;
    all_variants_produce_legal_graphs;
    compiled_graphs_compute_the_same_function;
    encrypted_execution_matches_plain;
    case "Figure 1 block end to end" fig1_managed_runs_end_to_end;
    case "ReSBM beats Fhelipe on models" resbm_beats_or_ties_fhelipe_on_models;
    case "equal bootstrap counts (Table 5 precondition)" equal_bootstrap_counts_with_fhelipe;
    case "minimal vs max bootstrap levels (Table 5)" resbm_uses_lower_bootstrap_levels;
    case "rescale-count gap (Table 4 shape)" fhelipe_executes_more_rescales;
    case "l_max sweep (Figure 7 shape)" l_max_sweep_increases_bootstraps;
    case "report consistency" report_consistency;
    case "variants lookup" variants_lookup;
    apply_levels_match_inference;
    case "apply's levels equal Scale_check.infer's through repairs"
      apply_levels_match_inference_with_repairs;
  ]
