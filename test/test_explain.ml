(* Resbm.Explain + Obs.Explain: full cost attribution, certificate-derived
   bootstrap rationales, byte-identical rendering across runs and cache
   temperature, and the renumbering-stability contract of the
   structural plan digest. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

let compile ?cache ?(prm = prm) model =
  let lowered = Nn.Lowering.lower model in
  let orig = Dfg.node_count lowered.Nn.Lowering.dfg in
  let managed, report =
    Resbm.Variants.compile ?cache Resbm.Variants.resbm prm
      lowered.Nn.Lowering.dfg
  in
  (orig, managed, report)

(* Everything `resbm explain` prints, as one string: waterfall, rationales
   and the digest.  The byte-identity tests compare these directly. *)
let render ?(prm = prm) ~orig managed report =
  let wf = Resbm.Explain.attribution prm ~managed report in
  let rs = Resbm.Explain.rationales prm ~orig_nodes:orig ~managed report in
  Format.asprintf "%a@.%a@.%s"
    (Obs.Explain.pp ~title:"explain")
    wf
    (Format.pp_print_list (Resbm.Explain.pp_rationale managed))
    rs
    (Obs.Json.to_string (Resbm.Explain.digest prm ~managed report))

(* --- cost attribution ------------------------------------------------------- *)

let attribution_is_complete () =
  let _, managed, report = compile Nn.Model.lenet5 in
  let wf = Resbm.Explain.attribution prm ~managed report in
  checkb "total matches the report's latency" true
    (Float.abs (wf.Obs.Explain.total -. report.Resbm.Report.latency_ms) < 1e-6);
  check_float ~eps:1e-6 "every predicted millisecond is attributed"
    wf.Obs.Explain.total
    (Obs.Explain.attributed wf);
  checkb "headline shares are present" true
    (List.map fst wf.Obs.Explain.shares = [ "bootstrap"; "rescale"; "modswitch" ]);
  (* folding never drops cost: each bucket's leaves + remainder = bucket *)
  List.iter
    (fun (g : Obs.Explain.group) ->
      List.iter
        (fun (b : Obs.Explain.bucket) ->
          let leaves =
            List.fold_left
              (fun acc (l : Obs.Explain.leaf) -> acc +. l.Obs.Explain.leaf_cost)
              0.0 b.Obs.Explain.leaves
          in
          checkb "bucket = leaves + folded remainder" true
            (Float.abs ((leaves +. b.Obs.Explain.folded_cost) -. b.Obs.Explain.bucket_cost)
            < 1e-6))
        g.Obs.Explain.buckets)
    wf.Obs.Explain.groups

(* --- bootstrap rationale ---------------------------------------------------- *)

let rationales_carry_certificates () =
  (* resnet20 places a mix of btsplc-cut bootstraps and bootstraps riding
     rescale tips — every one must be pinned by a certificate with a
     counterfactual delta. *)
  let orig, managed, report = compile Nn.Model.resnet20 in
  let rs = Resbm.Explain.rationales prm ~orig_nodes:orig ~managed report in
  let bootstraps =
    List.filter
      (fun (n : Dfg.node) ->
        match n.Dfg.kind with Op.Bootstrap _ -> true | _ -> false)
      (Dfg.live_nodes managed)
  in
  checkb "resnet20 places bootstraps" true (bootstraps <> []);
  checki "one rationale per live bootstrap" (List.length bootstraps) (List.length rs);
  List.iter
    (fun (r : Resbm.Explain.rationale) ->
      checkb "anchored to an original node" true (r.Resbm.Explain.ra_anchor >= 0);
      checkb "pinned by a certificate" true (r.Resbm.Explain.ra_cut_value <> None);
      match r.Resbm.Explain.ra_counterfactual with
      | None -> Alcotest.failf "bootstrap %%%d has no counterfactual" r.Resbm.Explain.ra_bootstrap
      | Some cf ->
          checkb "moving a min-cut placement never gets cheaper" true
            (cf.Resbm.Explain.cf_delta >= 0.0 || cf.Resbm.Explain.cf_value = infinity))
    rs

(* --- byte-identical across runs and cache temperature ----------------------- *)

let explain_deterministic () =
  let uncached () =
    let orig, managed, report = compile Nn.Model.lenet5 in
    render ~orig managed report
  in
  let ref_text = uncached () in
  check Alcotest.string "run 1 vs run 2" ref_text (uncached ());
  let cache = Resbm.Plan_cache.create () in
  let cold =
    let orig, managed, report = compile ~cache Nn.Model.lenet5 in
    render ~orig managed report
  in
  let warm =
    let orig, managed, report = compile ~cache Nn.Model.lenet5 in
    render ~orig managed report
  in
  check Alcotest.string "cold vs reference" ref_text cold;
  check Alcotest.string "cold vs warm cache hit" cold warm;
  checkb "the warm compile actually hit the cache" true
    ((Resbm.Plan_cache.stats cache).Resbm.Plan_cache.hits >= 1)

(* --- structural plan digest ------------------------------------------------- *)

let digest_self_diff_is_empty () =
  let _, managed, report = compile Nn.Model.lenet5 in
  let _, managed', report' = compile Nn.Model.lenet5 in
  let d = Resbm.Explain.digest prm ~managed report in
  let d' = Resbm.Explain.digest prm ~managed:managed' report' in
  checkb "two compiles of the same model have no structural diff" true
    (Obs.Explain.diff_json d d' = [])

let digest_detects_change () =
  let _, managed, report = compile Nn.Model.lenet5 in
  let lo = Ckks.Params.at_l_max 8 in
  let lowered = Nn.Lowering.lower Nn.Model.lenet5 in
  let managed', report' =
    Resbm.Variants.compile Resbm.Variants.resbm lo lowered.Nn.Lowering.dfg
  in
  let d = Resbm.Explain.digest prm ~managed report in
  let d' = Resbm.Explain.digest lo ~managed:managed' report' in
  checkb "a different plan produces a non-empty diff" true
    (Obs.Explain.diff_json d d' <> [])

let digest_of ?(prm = prm) g =
  let managed, report = Resbm.Variants.compile Resbm.Variants.resbm prm g in
  Resbm.Explain.digest prm ~managed report

let digest_renumbering_invariant =
  let reference = lazy (digest_of (Nn.Lowering.lower Nn.Model.tiny).Nn.Lowering.dfg) in
  qcheck ~count:25 "plan digest is stable under node renumbering"
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let g = (Nn.Lowering.lower Nn.Model.tiny).Nn.Lowering.dfg in
      let d' = digest_of (renumber seed g) in
      Obs.Explain.diff_json (Lazy.force reference) d' = [])

(* One deep fixed case on a model that actually bootstraps, so placements
   and cut values go through the renumbering check too. *)
let digest_renumbering_with_bootstraps () =
  let lo = Ckks.Params.at_l_max 8 in
  let g = (Nn.Lowering.lower Nn.Model.lenet5).Nn.Lowering.dfg in
  let d = digest_of ~prm:lo g in
  let d' = digest_of ~prm:lo (renumber 42 g) in
  checkb "bootstrap-placing plan digest survives renumbering" true
    (Obs.Explain.diff_json d d' = [])

(* --- bench-diff integration ------------------------------------------------- *)

let bench_rows digest =
  [
    {
      Obs.Bench_diff.model = "m";
      manager = "g";
      metrics = [ ("latency_ms", 100.0) ];
      warm_speedup = 100.0;
      digest;
      counters = [];
    };
  ]

let bench_src rows =
  {
    Obs.Bench_diff.version = Obs.Bench_diff.schema_version;
    git_rev = "test";
    l_max = 16;
    rows;
  }

let bench_diff_carries_plan_drift () =
  let d = Obs.Json.Obj [ ("bootstrap_count", Obs.Json.Int 3) ] in
  let d' = Obs.Json.Obj [ ("bootstrap_count", Obs.Json.Int 4) ] in
  let diff base cand =
    match
      Obs.Bench_diff.diff ~base:(bench_src (bench_rows base))
        ~cand:(bench_src (bench_rows cand))
    with
    | Ok o -> o
    | Error m -> Alcotest.failf "diff failed: %s" m
  in
  let o = diff d d' in
  checkb "metric-identical rows still report plan drift" true
    (o.Obs.Bench_diff.plan_drift <> []);
  checki "plan drift alone fails the `Changed gate" 2 (Obs.Bench_diff.exit_code o);
  let o = diff d d in
  checkb "identical digests: no drift" true (o.Obs.Bench_diff.plan_drift = []);
  checki "and the gate passes" 0 (Obs.Bench_diff.exit_code o)

(* The plan digests of the four compile-bench models bench-diff does not
   gate, under every manager at l_max 16: MD5 of the rendered
   [Explain.digest].  A planner or pass change that moves any plan moves
   one of these. *)
let pinned_digests =
  [
    ( "ResNet44",
      [
        ("ReSBM", "de6da3c8523309e692bbd8c5c7e8c3f0");
        ("ReSBM_eva", "4a6cda96393971c0987b35eac9163a0c");
        ("ReSBM_max", "18522267773c137a3dc1640526cc15ef");
        ("ReSBM_pm", "3e8db303c0badfafa2119550cecf18c7");
        ("Fhelipe", "b344e2c93991f1d04a4972f42b88f496");
      ] );
    ( "AlexNet",
      [
        ("ReSBM", "8d6655b5fe4ce4e92240106f2db8bf38");
        ("ReSBM_eva", "4a233a6bf684aa1f293719c2794d29b7");
        ("ReSBM_max", "8b493e0dbff44565c95fa895f9bca424");
        ("ReSBM_pm", "d5302d6f9fddb924318ff7ca249e2315");
        ("Fhelipe", "464dcefe7d7ddd57f8f9bbbbe8bab2f2");
      ] );
    ( "VGG16",
      [
        ("ReSBM", "ff20876bbd3a470e08981b18fb961104");
        ("ReSBM_eva", "2c049cfc9f68c7cfab30f116815a01fa");
        ("ReSBM_max", "4b63a43db7963d6025088e74388213eb");
        ("ReSBM_pm", "4afa1c48ce7ddb4dcdd0aa877af3f7b1");
        ("Fhelipe", "bad6a77c9d87297d301af6179797722e");
      ] );
    ( "MobileNet",
      [
        ("ReSBM", "e3e3064df31703691dfe741ab7cc1006");
        ("ReSBM_eva", "0f1bcd87471cac83b944cbdfa0930caa");
        ("ReSBM_max", "d5c97744446f7414ac9efc20649793dc");
        ("ReSBM_pm", "94611530c8a8ed969ecbf96c5d94a7f3");
        ("Fhelipe", "abecf3151903ad7dc00902b28938fa88");
      ] );
  ]

let digests_pinned_on_compile_bench_models () =
  let prm = Ckks.Params.at_l_max 16 in
  List.iter
    (fun (model_name, by_manager) ->
      let model = Option.get (Nn.Model.by_name model_name) in
      let g = (Nn.Lowering.lower model).Nn.Lowering.dfg in
      List.iter
        (fun (mgr : Resbm.Variants.manager) ->
          let managed, report = Resbm.Variants.compile mgr prm g in
          let got =
            Digest.to_hex
              (Digest.string (Obs.Json.to_string (Resbm.Explain.digest prm ~managed report)))
          in
          check Alcotest.string
            (model_name ^ "/" ^ mgr.Resbm.Variants.name)
            (List.assoc mgr.Resbm.Variants.name by_manager)
            got)
        Resbm.Variants.all)
    pinned_digests

let suite =
  [
    case "attribution covers 100% of predicted latency" attribution_is_complete;
    case "every bootstrap carries certificate evidence" rationales_carry_certificates;
    case "explain output is byte-identical across runs and cache" explain_deterministic;
    case "self plan-diff reports no differences" digest_self_diff_is_empty;
    case "a real plan change is detected" digest_detects_change;
    digest_renumbering_invariant;
    case "renumbering invariance holds with bootstraps placed" digest_renumbering_with_bootstraps;
    case "bench-diff gates on structural plan drift" bench_diff_carries_plan_drift;
    case "plan digests pinned on the ungated compile-bench models"
      digests_pinned_on_compile_bench_models;
  ]
