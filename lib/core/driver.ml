exception Verification_failed of string * Analysis.Diag.t list

let () =
  Printexc.register_printer (function
    | Verification_failed (pass, diags) ->
        Some
          (Format.asprintf "Verification_failed after %s:@,%a" pass
             (Format.pp_print_list Analysis.Diag.pp_verbose)
             diags)
    | _ -> None)

(* Process-wide compile sequence: attached to every log record emitted
   during one compile so interleaved compiles (parallel sweeps, warm
   benches) stay separable in a merged log stream. *)
let compile_seq = Atomic.make 0

let regions_counter = Obs.Counter.make "driver.regions"
let hoists_counter = Obs.Counter.make "ms_opt.hoists"

let compile_cold ~config ~name ~ms_opt ~verify_each ~profile ~fuel ~segment_scan
    ~fallbacks prm g =
  let profile = match profile with Some p -> p | None -> Obs.Profile.create () in
  Obs.with_profile profile @@ fun () ->
  Obs.with_log_ctx ~compile_id:(Atomic.fetch_and_add compile_seq 1) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* A pipeline phase: timed span, pass context on every log record
     emitted inside, GC pressure published to the ambient metrics. *)
  let phase pname f = Obs.with_log_ctx ~pass:pname (fun () -> Obs.gc_span pname f) in
  Obs.log_info ~event:"compile.start"
    ~fields:
      [
        ("manager", Obs.Json.String name);
        ("nodes", Obs.Json.Int (Fhe_ir.Dfg.node_count g));
      ]
    "compiling";
  let verify pass ?regions ?(scale = true) graph =
    if verify_each then begin
      let diags =
        Obs.span ("verify." ^ pass) (fun () ->
            Analysis.Verify.run ?regions ~scale prm graph)
      in
      if Analysis.Diag.has_errors diags then begin
        Obs.log_error ~event:"verify.failed"
          ~fields:[ ("pass", Obs.Json.String pass) ]
          (Printf.sprintf "per-pass verification failed after %s" pass);
        raise (Verification_failed (pass, diags))
      end
    end
  in
  let regioned = phase "region_build" (fun () -> Region.build g) in
  Obs.Counter.add regions_counter regioned.Region.count;
  (* The input graph is legal only after management: check structure and
     the region invariants here, the scale rules after the plan lands. *)
  verify "region_build" ~scale:false
    ~regions:
      {
        Analysis.Verify.region_of = regioned.Region.region_of;
        count = regioned.Region.count;
      }
    g;
  let plan =
    phase "plan" (fun () -> Btsmgr.plan ~config ~fuel ~segment_scan regioned prm)
  in
  let outcome = phase "apply" (fun () -> Plan.apply regioned prm plan) in
  let managed = outcome.Plan.dfg in
  verify "plan_apply" managed;
  (* Legalisation's closing analysis and sort describe [managed]; Ms_opt
     patches both hoist by hoist, so the latency and stats phases read
     them without re-inferring or re-sorting. *)
  let info, order, ms_opt_hoists =
    if ms_opt then begin
      let r =
        phase "ms_opt" (fun () ->
            Passes.Ms_opt.run_from ~info:outcome.Plan.final_info ~order:outcome.Plan.order
              prm managed)
      in
      Obs.Counter.add hoists_counter r.Passes.Ms_opt.hoists;
      verify "ms_opt" managed;
      (r.Passes.Ms_opt.info, r.Passes.Ms_opt.order, r.Passes.Ms_opt.hoists)
    end
    else (outcome.Plan.final_info, outcome.Plan.order, 0)
  in
  let latency_ms = phase "latency" (fun () -> Fhe_ir.Latency.total ~info prm managed) in
  let stats = phase "stats" (fun () -> Fhe_ir.Stats.collect ~order managed) in
  (* Region attribution of the managed graph, for runtime traces and the
     trace summary: plan application copies the input graph (ids are
     preserved), so original nodes keep their partition assignment, and
     every inserted management node — created after its tail, hence with a
     larger id — inherits its tail's region in one increasing-id pass. *)
  let region_of =
    phase "region_attr" (fun () ->
        let attr = Array.make (Fhe_ir.Dfg.node_count managed) (-1) in
        let orig = Array.length regioned.Region.region_of in
        let live = Fhe_ir.Dfg.live_nodes managed in
        List.iter
          (fun (node : Fhe_ir.Dfg.node) ->
            if node.Fhe_ir.Dfg.id < orig then
              attr.(node.Fhe_ir.Dfg.id) <- regioned.Region.region_of.(node.Fhe_ir.Dfg.id))
          live;
        (* Inserted chains usually point backwards (a node is created after
           its tail), but retargeting can leave an inserted node reading a
           newer one, so iterate to a fixpoint; chains are short, two or
           three rounds settle everything. *)
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun (node : Fhe_ir.Dfg.node) ->
              if attr.(node.Fhe_ir.Dfg.id) < 0 then
                Array.iter
                  (fun a ->
                    if attr.(node.Fhe_ir.Dfg.id) < 0 && attr.(a) >= 0 then begin
                      attr.(node.Fhe_ir.Dfg.id) <- attr.(a);
                      changed := true
                    end)
                  node.Fhe_ir.Dfg.args)
            live
        done;
        attr)
  in
  let compile_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  (* Harvest the min-cut optimality certificates the placements attached
     to their cuts, in region order: the checkable evidence behind the
     plan, preserved through the plan cache. *)
  let certificates =
    let acc = ref [] in
    let entry pass r (cut : Cut.t) c =
      {
        Report.ce_pass = pass;
        ce_region = r;
        ce_cert = c;
        ce_node_of = Array.copy cut.Cut.node_of;
      }
    in
    Array.iteri
      (fun r (a : Btsmgr.region_action) ->
        (match a.Btsmgr.smo_cut with
        | Some ({ Cut.cert = Some c; _ } as cut) ->
            acc := entry "smoplc" r cut c :: !acc
        | _ -> ());
        match a.Btsmgr.bts with
        | Some { Btsmgr.cut = Some ({ Cut.cert = Some c; _ } as cut); _ } ->
            acc := entry "btsplc" r cut c :: !acc
        | _ -> ())
      plan.Btsmgr.actions;
    List.rev !acc
  in
  let report =
    {
      Report.manager = name;
      compile_ms;
      latency_ms;
      stats;
      segments = plan.Btsmgr.segments;
      repair_bootstraps = outcome.Plan.repair_bootstraps;
      ms_opt_hoists;
      profile;
      region_count = regioned.Region.count;
      region_of;
      fallbacks;
      certificates;
    }
  in
  Obs.log_info ~event:"compile.done"
    ~fields:
      [
        ("manager", Obs.Json.String name);
        ("compile_ms", Obs.Json.Float compile_ms);
        ("latency_ms", Obs.Json.Float latency_ms);
        ("bootstraps", Obs.Json.Int stats.Fhe_ir.Stats.bootstrap_count);
        ("regions", Obs.Json.Int regioned.Region.count);
      ]
    "compiled";
  (managed, report)

(* --- Certification -------------------------------------------------------- *)

let certify_diags prm managed (report : Report.t) =
  Obs.span "certify" @@ fun () ->
  let cuts =
    Obs.span "certify.cuts" @@ fun () ->
    List.concat_map
      (fun (e : Report.certificate_entry) ->
        (* The cut value the placement recorded IS the certificate value
           (the cut is built from it), so the internal duality check is
           the value cross-check. *)
        Analysis.Certify.check ~pass:e.Report.ce_pass ~region:e.Report.ce_region
          e.Report.ce_cert)
      report.Report.certificates
  in
  let levels = Obs.span "certify.levels" (fun () -> Analysis.Verify.run prm managed) in
  let noise = Obs.span "certify.noise" (fun () -> Analysis.Absint.check_noise prm managed) in
  [ ("certify.cuts", cuts); ("certify.levels", levels); ("certify.noise", noise) ]

let compile ?(config = Btsmgr.resbm_config) ?(name = "ReSBM") ?(ms_opt = false)
    ?(verify_each = false) ?profile ?(fuel = Fuel.unlimited) ?(segment_scan = `Full)
    ?(fallbacks = []) ?cache prm g =
  match cache with
  | None ->
      compile_cold ~config ~name ~ms_opt ~verify_each ~profile ~fuel ~segment_scan
        ~fallbacks prm g
  | Some c -> (
      let ckey = Plan_cache.key ~config ~name ~ms_opt ~segment_scan prm g in
      match Plan_cache.find c ckey with
      | Some (managed, report) ->
          (* Warm hit: the stored plan and report are bit-identical to
             what the cold path would produce (fallbacks belong to this
             call, compile_ms was already replaced by the lookup time). *)
          Obs.log_info ~event:"plan_cache.hit"
            ~fields:[ ("manager", Obs.Json.String name) ]
            "serving plan from cache";
          (managed, { report with Report.fallbacks })
      | None ->
          Obs.log_info ~event:"plan_cache.miss"
            ~fields:[ ("manager", Obs.Json.String name) ]
            "plan not cached, compiling cold";
          let managed, report =
            compile_cold ~config ~name ~ms_opt ~verify_each ~profile ~fuel
              ~segment_scan ~fallbacks prm g
          in
          Plan_cache.store c ckey managed report;
          (managed, report))

(* --- Graceful degradation ------------------------------------------------- *)

(* The fuel-metered work a compile performed, read back from its profile:
   exactly the counters incremented alongside each [Fuel.spend] (DP
   segment evaluations and the two placement solvers' min-cuts). *)
let planner_steps profile =
  List.fold_left
    (fun acc -> function
      | ("btsmgr.segment_evals" | "smoplc.cuts" | "btsplc.cuts"), v -> acc + v
      | _ -> acc)
    0
    (Obs.Profile.counters profile)

let calibrated_fuel_steps reports =
  Fuel.calibrate
    (List.map (fun (r : Report.t) -> planner_steps r.Report.profile) reports)

type tier = {
  tier_name : string;
  tier_config : Btsmgr.config;
  tier_scan : [ `Full | `Adjacent ];
}

let waterline_config =
  {
    Btsmgr.min_level_bts = false;
    smo_mode = Region_eval.Smo_eva;
    bts_mode = Region_eval.Bts_region_end;
    price_transits = false;
  }

(* resbm → waterline → eager: from the paper's full min-cut DP down to
   EVA-style waterline rescaling with region-end bootstraps (no min-cut,
   still a full segment scan), down to the linear eager strategy (one
   region per segment, a full-elevation bootstrap at every boundary) —
   each tier strictly cheaper and more conservative than the previous. *)
let default_chain =
  [
    { tier_name = "resbm"; tier_config = Btsmgr.resbm_config; tier_scan = `Full };
    { tier_name = "waterline"; tier_config = waterline_config; tier_scan = `Full };
    { tier_name = "eager"; tier_config = waterline_config; tier_scan = `Adjacent };
  ]

(* Exceptions that mean "this tier failed" rather than "the input is
   broken": planning dead-ends, budget exhaustion, plan application bugs
   and per-stage verification failures all degrade; anything else (e.g.
   Invalid_argument from a malformed graph) escapes untouched. *)
let degrade_reason = function
  | Btsmgr.No_plan msg -> Some ("no plan: " ^ msg)
  | Plan.Apply_error msg -> Some ("apply error: " ^ msg)
  | Fuel.Exhausted stage -> Some ("fuel exhausted in " ^ stage)
  | Region_eval.Infeasible msg -> Some ("infeasible region: " ^ msg)
  | Verification_failed (pass, _) -> Some ("verification failed after " ^ pass)
  | _ -> None

let compile_robust ?fuel_steps ?(ms_opt = false) ?(verify_each = false) ?profile ?jobs:_
    ?cache prm g =
  let rec go fallbacks = function
    | [] -> assert false
    | [ tier ] ->
        (* Terminal tier: unlimited fuel — it must either plan or raise
           the real failure for the caller. *)
        compile ~config:tier.tier_config ~name:tier.tier_name ~ms_opt ~verify_each
          ?profile ~segment_scan:tier.tier_scan ~fallbacks:(List.rev fallbacks)
          ?cache prm g
    | tier :: rest -> (
        let fuel =
          match fuel_steps with
          | None -> Fuel.unlimited
          | Some n -> Fuel.create ~stage:tier.tier_name n
        in
        match
          compile ~config:tier.tier_config ~name:tier.tier_name ~ms_opt ~verify_each
            ?profile ~fuel ~segment_scan:tier.tier_scan
            ~fallbacks:(List.rev fallbacks) ?cache prm g
        with
        | result -> result
        | exception e -> (
            match degrade_reason e with
            | None -> raise e
            | Some reason ->
                Obs.metric_incr
                  ~labels:[ ("tier", tier.tier_name) ]
                  "planner_fallbacks_total";
                Obs.log_warn ~event:"planner.degraded"
                  ~fields:
                    [
                      ("tier", Obs.Json.String tier.tier_name);
                      ("reason", Obs.Json.String reason);
                    ]
                  (Printf.sprintf "tier %s failed (%s), degrading" tier.tier_name reason);
                Obs.trace_instant ~name:"planner_fallback"
                  ~detail:
                    [
                      ("tier", Obs.Json.String tier.tier_name);
                      ("reason", Obs.Json.String reason);
                    ]
                  ();
                go ((tier.tier_name, reason) :: fallbacks) rest))
  in
  go [] default_chain
