(* The flight-deck observability tier: the Log ring buffer (overflow,
   ambient context, JSON round-trip) and its Perfetto instants, Health
   verdicts and exit codes, gc_span metric publication, the metric
   families each flight shape writes, the stdout-in-lib source lint —
   and the headline contract that installing all of it changes no
   compile result bit. *)
open Test_util

let prm = Ckks.Params.default

(* --- the log ring --------------------------------------------------------- *)

let ring_overflow_drops_oldest () =
  let sink = Obs.Log.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Log.record sink ~level:Obs.Log.Info ~event:(Printf.sprintf "e%d" i) ()
  done;
  checki "every record counted" 10 (Obs.Log.recorded sink);
  checki "overflow counted" 6 (Obs.Log.dropped sink);
  let survivors = Obs.Log.records sink in
  checki "capacity survivors" 4 (List.length survivors);
  checkb "newest records survive, chronological" true
    (List.map (fun r -> r.Obs.Log.lseq) survivors = [ 6; 7; 8; 9 ]);
  checkb "events match sequence" true
    (List.map (fun r -> r.Obs.Log.event) survivors = [ "e6"; "e7"; "e8"; "e9" ])

let ambient_context_attribution () =
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () ->
      Obs.log_info ~event:"outer" "before any context";
      Obs.with_log_ctx ~compile_id:7 (fun () ->
          Obs.with_log_ctx ~pass:"plan" (fun () ->
              Obs.set_node ~region:4 11;
              Obs.log_warn ~event:"inner"
                ~fields:[ ("k", Obs.Json.Int 1) ]
                "nested context";
              Obs.set_node ~region:(-1) (-1);
              Obs.log_info ~event:"after" "node execution over")));
  (* outside the callback the sink is gone: emission is a no-op *)
  Obs.log_error ~event:"orphan" "no ambient sink";
  match Obs.Log.records sink with
  | [ outer; inner; after ] ->
      checki "no context: compile_id unattributed" (-1) outer.Obs.Log.compile_id;
      check Alcotest.string "no context: pass empty" "" outer.Obs.Log.pass;
      checki "no context: node unattributed" (-1) outer.Obs.Log.node;
      checki "no context: region unattributed" (-1) outer.Obs.Log.region;
      checki "nested: compile id from the outer frame" 7 inner.Obs.Log.compile_id;
      check Alcotest.string "nested: pass from the inner frame" "plan"
        inner.Obs.Log.pass;
      checki "region from the context" 4 inner.Obs.Log.region;
      checki "node from the context" 11 inner.Obs.Log.node;
      checki "cleared node: region unattributed" (-1) after.Obs.Log.region;
      checki "cleared node: node unattributed" (-1) after.Obs.Log.node;
      checki "emitting domain recorded" ((Domain.self () :> int)) inner.Obs.Log.domain;
      checkb "structured fields kept" true
        (inner.Obs.Log.fields = [ ("k", Obs.Json.Int 1) ]);
      checkb "level helper sets the level" true (inner.Obs.Log.level = Obs.Log.Warn)
  | rs -> Alcotest.failf "expected 3 records, got %d" (List.length rs)

(* The context is domain-local: a spawned domain starts with no handles
   and node -1, and what it installs stays in that domain. *)
let spawned_domain_starts_empty () =
  let p = Obs.Profile.create () in
  let sink = Obs.Log.create () in
  let child_sink = Obs.Log.create () in
  Obs.with_profile p @@ fun () ->
  Obs.with_trace (Obs.Trace.create ()) @@ fun () ->
  Obs.with_metrics (Obs.Metrics.create ()) @@ fun () ->
  Obs.with_log sink @@ fun () ->
  Obs.with_log_ctx ~compile_id:5 ~pass:"plan" @@ fun () ->
  Obs.set_node ~region:2 9;
  let child =
    Domain.spawn (fun () ->
        let fresh =
          Obs.current () = None
          && Obs.current_trace () = None
          && Obs.current_metrics () = None
          && Obs.current_node () = -1
        in
        (* no sink here yet: this record must reach no one *)
        Obs.log_info ~event:"child.orphan" "";
        Obs.with_profile (Obs.Profile.create ()) (fun () ->
            Obs.with_log child_sink (fun () ->
                Obs.with_log_ctx ~compile_id:99 (fun () ->
                    Obs.set_node ~region:5 42;
                    Obs.log_info ~event:"child" "")));
        fresh)
  in
  checkb "spawned domain sees no handle and node -1" true (Domain.join child);
  checkb "parent profile kept" true
    (match Obs.current () with Some q -> q == p | None -> false);
  checki "parent node kept" 9 (Obs.current_node ());
  Obs.log_info ~event:"parent" "";
  Obs.set_node ~region:(-1) (-1);
  (match Obs.Log.records child_sink with
  | [ r ] ->
      checki "child record: own compile id" 99 r.Obs.Log.compile_id;
      check Alcotest.string "child record: no inherited pass" "" r.Obs.Log.pass;
      checki "child record: own node" 42 r.Obs.Log.node;
      checki "child record: own region" 5 r.Obs.Log.region
  | rs -> Alcotest.failf "child sink: expected 1 record, got %d" (List.length rs));
  match Obs.Log.records sink with
  | [ r ] ->
      check Alcotest.string "only the parent's record" "parent" r.Obs.Log.event;
      checki "parent compile id kept" 5 r.Obs.Log.compile_id;
      check Alcotest.string "parent pass kept" "plan" r.Obs.Log.pass;
      checki "parent record node" 9 r.Obs.Log.node;
      checki "parent record region" 2 r.Obs.Log.region
  | rs -> Alcotest.failf "parent sink: expected 1 record, got %d" (List.length rs)

(* A record emitted while the interpreter executes a node carries that
   node and its region; the const resolver runs inside each [Const]
   node's execution.  After [Interp.run] returns or raises both are -1
   again. *)
let interp_publishes_executing_node () =
  let p = Ckks.Params.fig1 in
  let managed, _ = Resbm.Driver.compile p (fig1_block ()) in
  let d = 8 in
  let is_const_node name id =
    id >= 0
    && (Fhe_ir.Dfg.node managed id).Fhe_ir.Dfg.kind = Fhe_ir.Op.Const { name }
  in
  let consts name =
    Obs.log_info ~event:"const" ~fields:[ ("name", Obs.Json.String name) ] "";
    const_env ~dim:d name
  in
  let env = { Fhe_ir.Interp.inputs = [ ("x", input_env ~dim:d 5L) ]; consts } in
  let region_of id = 100 + id in
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () ->
      ignore (Fhe_ir.Interp.run ~region_of (Ckks.Evaluator.create p) managed env);
      Obs.log_info ~event:"after" "");
  checki "node cleared after run returns" (-1) (Obs.current_node ());
  let records, after =
    match List.rev (Obs.Log.records sink) with
    | last :: rest -> (List.rev rest, last)
    | [] -> Alcotest.fail "no records"
  in
  checki "region cleared after run returns" (-1) after.Obs.Log.region;
  checkb "every const resolved under the log" true (List.length records >= 8);
  List.iter
    (fun (r : Obs.Log.record) ->
      match r.Obs.Log.fields with
      | [ ("name", Obs.Json.String name) ] ->
          checkb ("record carries the node of " ^ name) true
            (is_const_node name r.Obs.Log.node);
          checki ("record carries the region of " ^ name) (region_of r.Obs.Log.node)
            r.Obs.Log.region
      | _ -> Alcotest.fail "unexpected record fields")
    records;
  let failing = { env with Fhe_ir.Interp.consts = (fun _ -> failwith "resolver") } in
  (match Fhe_ir.Interp.run (Ckks.Evaluator.create p) managed failing with
  | _ -> Alcotest.fail "expected the resolver failure"
  | exception Failure _ -> ());
  checki "node cleared after run raises" (-1) (Obs.current_node ())

let jsonl_round_trip () =
  let sink = Obs.Log.create () in
  Obs.Log.record sink ~level:Obs.Log.Info ~event:"a" ~msg:"plain" ();
  Obs.Log.record sink ~level:Obs.Log.Error ~event:"b" ~sim_ms:12.5 ~compile_id:3
    ~pass:"verify" ~region:1 ~node:42
    ~fields:[ ("ratio", Obs.Json.Float 1.5); ("tag", Obs.Json.String "x\"y") ]
    ();
  (* one compact JSON line per record, as a flight file's records list
     carries them, parsed back through the strict parser *)
  List.iter
    (fun r ->
      let line = Obs.Json.to_string (Obs.Log.record_to_json r) in
      match Result.bind (Obs.Json.of_string line) Obs.Log.record_of_json with
      | Error m -> Alcotest.failf "record_of_json failed: %s" m
      | Ok r' -> checkb "record json round-trip" true (r' = r))
    (Obs.Log.records sink)

let log_instants_land_on_the_right_process () =
  let sink = Obs.Log.create () in
  Obs.Log.record sink ~level:Obs.Log.Info ~event:"compile.side" ();
  Obs.Log.record sink ~level:Obs.Log.Warn ~event:"exec.side" ~sim_ms:3.0 ~region:2 ();
  match Obs.Log.chrome_events (Obs.Log.records sink) with
  | [ a; b ] ->
      let member k j = Obs.Json.member k j in
      checkb "instant phase" true
        (member "ph" a = Some (Obs.Json.String "i")
        && member "ph" b = Some (Obs.Json.String "i"));
      checkb "untimed record on the compile process" true
        (member "pid" a = Some (Obs.Json.Int 0));
      checkb "timed record on the execution process" true
        (member "pid" b = Some (Obs.Json.Int 1));
      checkb "category encodes the level" true
        (member "cat" a = Some (Obs.Json.String "log.info")
        && member "cat" b = Some (Obs.Json.String "log.warn"))
  | es -> Alcotest.failf "expected 2 instants, got %d" (List.length es)

(* --- telemetry off = bit-identity ----------------------------------------- *)

let flight_off_identity =
  qcheck ~count:30 "full flight instrumentation changes no compile bit"
    (random_dfg_gen ~max_nodes:40 ~max_depth:8)
    (fun params ->
      let mgr =
        let all = Resbm.Variants.all in
        List.nth all (Hashtbl.hash params mod List.length all)
      in
      let compile g =
        match Resbm.Variants.compile mgr prm g with
        | r -> Some (fingerprint r)
        | exception Resbm.Btsmgr.No_plan _ -> None
      in
      let plain = compile (build_random_dfg params) in
      let flown =
        Obs.with_log (Obs.Log.create ()) @@ fun () ->
        Obs.with_metrics (Obs.Metrics.create ()) @@ fun () ->
        compile (build_random_dfg params)
      in
      plain = flown)

let gc_span_publishes_pressure () =
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      Obs.gc_span "flight_phase" (fun () ->
          ignore (Sys.opaque_identity (Array.init 4096 float_of_int))));
  (match
     Obs.Metrics.histogram ~labels:[ ("phase", "flight_phase") ] m "gc_major_words"
   with
  | None -> Alcotest.fail "gc_major_words{flight_phase} not published"
  | Some h -> checkb "one observation, non-negative" true
        (h.Obs.Metrics.hcount = 1 && h.Obs.Metrics.hsum >= 0.0));
  checkb "gc_major_words is the only family" true
    (Obs.Metrics.all_counters m = [] && Obs.Metrics.all_gauges m = []
    && List.length (Obs.Metrics.all_histograms m) = 1);
  (* without an ambient registry the span publishes nowhere *)
  let m' = Obs.Metrics.create () in
  Obs.gc_span "orphan" (fun () -> ());
  checkb "no ambient registry, no metrics" true (Obs.Metrics.all_histograms m' = [])

let metrics_json_round_trip () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:3 ~labels:[ ("model", "tiny") ] m "chaos_trials_total";
  Obs.Metrics.set m "log_dropped_records" 6.0;
  List.iter
    (Obs.Metrics.observe ~labels:[ ("op", "mul_cc") ] m "noise_headroom_bits")
    [ 5.5; 7.25; 12.0 ];
  let dump m = Obs.Json.to_string (Obs.Metrics.to_json m) in
  match Obs.Metrics.of_json (Obs.Metrics.to_json m) with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok m' -> check Alcotest.string "to_json . of_json . to_json is stable"
        (dump m) (dump m')

(* --- health --------------------------------------------------------------- *)

let find_check rule (v : Obs.Health.verdict) =
  match List.find_opt (fun c -> c.Obs.Health.rule = rule) v.Obs.Health.checks with
  | Some c -> c
  | None -> Alcotest.failf "rule %s missing from the verdict" rule

let health_vacuous_run_is_healthy () =
  let v = Obs.Health.evaluate (Obs.Metrics.create ()) in
  checkb "nothing measured, nothing failed" true v.Obs.Health.healthy;
  checki "exit code" 0 (Obs.Health.exit_code v);
  List.iter
    (fun rule ->
      let c = find_check rule v in
      checkb (rule ^ " inapplicable") false c.Obs.Health.applicable;
      checkb (rule ^ " passes vacuously") true (c.Obs.Health.severity = Obs.Health.Pass))
    [ "noise-headroom"; "recovery-rate"; "gc-pressure" ]

let health_recovery_floor_fails () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:10 ~labels:[ ("model", "tiny") ] m "chaos_faulted_total";
  Obs.Metrics.incr ~by:5 ~labels:[ ("model", "tiny") ] m "chaos_recovered_total";
  let v = Obs.Health.evaluate m in
  let c = find_check "recovery-rate" v in
  checkb "applicable once trials faulted" true c.Obs.Health.applicable;
  check_float "measured rate" 0.5 c.Obs.Health.value;
  checkb "0.5 < 0.9 floor fails" true (c.Obs.Health.severity = Obs.Health.Fail);
  checkb "verdict unhealthy" false v.Obs.Health.healthy;
  checki "exit code" 2 (Obs.Health.exit_code v);
  check_float "fixed floor" 0.9 c.Obs.Health.threshold;
  (* 9/10 sits exactly on the floor and passes *)
  Obs.Metrics.incr ~by:4 ~labels:[ ("model", "lenet5") ] m "chaos_recovered_total";
  checkb "rate on the floor passes" true (Obs.Health.evaluate m).Obs.Health.healthy

let health_warn_rules_never_flip () =
  (* Error-level logs and ring overflow are anomalies worth surfacing but
     not gating: severity Warn, verdict stays healthy. *)
  let m = Obs.Metrics.create () in
  Obs.Metrics.set m "log_dropped_records" 3.0;
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () -> Obs.log_error ~event:"run.failed" "boom");
  let v = Obs.Health.evaluate ~records:(Obs.Log.records sink) m in
  checkb "error-logs warns" true
    ((find_check "error-logs" v).Obs.Health.severity = Obs.Health.Warn);
  checkb "ring-overflow warns" true
    ((find_check "ring-overflow" v).Obs.Health.severity = Obs.Health.Warn);
  checkb "warn-only rules keep the verdict healthy" true v.Obs.Health.healthy;
  checki "exit code" 0 (Obs.Health.exit_code v)

(* --- flight shapes ---------------------------------------------------------- *)

(* The metric families Health's rules read.  A flight writes no other. *)
let health_families =
  [
    "noise_headroom_bits";
    "chaos_faulted_total";
    "chaos_recovered_total";
    "serve_admitted_total";
    "serve_completed_total";
    "planner_fallbacks_total";
    "gc_major_words";
    "trace_dropped_events";
    "log_dropped_records";
  ]

(* Run [f] under a fresh log sink and registry, as [--log-out] does, and
   return the sorted metric-family names of the flight file written
   after it. *)
let flight_families f =
  let sink = Obs.Log.create () and m = Obs.Metrics.create () in
  Obs.with_log sink (fun () -> Obs.with_metrics m (fun () -> f m));
  let metrics = Option.get (Obs.Json.member "metrics" (Obs.Flight.to_json sink m)) in
  List.concat_map
    (fun section ->
      match Obs.Json.member section metrics with
      | Some (Obs.Json.List es) ->
          List.filter_map
            (fun e ->
              match Obs.Json.member "name" e with
              | Some (Obs.Json.String n) -> Some n
              | _ -> None)
            es
      | _ -> [])
    [ "counters"; "gauges"; "histograms" ]
  |> List.sort_uniq compare

let flight_shapes_write_only_health_families () =
  let tiny () = (Nn.Lowering.lower Nn.Model.tiny).Nn.Lowering.dfg in
  let shapes =
    [
      ( "compile",
        (fun _ -> ignore (Resbm.Variants.compile Resbm.Variants.resbm prm (tiny ()))),
        [ "gc_major_words"; "log_dropped_records" ] );
      ( "trace",
        (fun m ->
          let p = Ckks.Params.fig1 in
          let managed, _ = Resbm.Driver.compile p (fig1_block ()) in
          let env =
            { Fhe_ir.Interp.inputs = [ ("x", input_env ~dim:8 5L) ]; consts = const_env ~dim:8 }
          in
          let tr = Obs.Trace.create () in
          ignore (Fhe_ir.Interp.run ~trace:tr (Ckks.Evaluator.create p) managed env);
          Obs.Metrics.add_trace m tr),
        [
          "gc_major_words"; "log_dropped_records"; "noise_headroom_bits"; "trace_dropped_events";
        ] );
      ( "chaos",
        (fun _ ->
          ignore
            (Resilience.Chaos.run
               { Resilience.Chaos.default with Resilience.Chaos.trials = 4; dim = 16 })),
        [ "chaos_faulted_total"; "chaos_recovered_total"; "gc_major_words"; "log_dropped_records" ]
      );
      ( "serve",
        (fun _ ->
          ignore
            (Serving.Scheduler.run
               {
                 Serving.Scheduler.default with
                 Serving.Scheduler.model = "tiny";
                 l_max = 9;
                 dim = 16;
                 max_batch = 4;
                 arrival = Serving.Scheduler.Poisson 40.0;
                 duration_ms = 300.0;
                 chaos_rate = 0.1;
               })),
        [ "gc_major_words"; "log_dropped_records"; "serve_admitted_total"; "serve_completed_total" ]
      );
    ]
  in
  List.iter
    (fun (shape, run, expected) ->
      let families = flight_families run in
      checkb (shape ^ " flight families pinned") true (families = expected);
      List.iter
        (fun n -> checkb (shape ^ ": " ^ n ^ " is read by Health") true (List.mem n health_families))
        families)
    shapes

(* A flight file in the older format: histograms carry p50/p90/p99 and
   cumulative buckets, and families no rule reads (per-op evaluator
   counts, pipeline counters, serve_* and latency histograms) sit next to
   the ones Health judges.  It loads, and its verdict is the one the
   older evaluator gave, byte for byte, less the refutations check (the
   compile-time certification path that fed it is gone). *)
let parent_format_flight = {|{"resbm_flight":1,
 "records":[
  {"seq":0,"level":"info","event":"compile.done","msg":"compiled","ts_ms":1.5,"compile_id":0,"pass":"","region":-1,"node":-1,"domain":0,"fields":{"manager":"resbm"}},
  {"seq":1,"level":"error","event":"run.failed","msg":"boom","ts_ms":2.0,"sim_ms":12.5,"compile_id":-1,"pass":"","region":3,"node":17,"domain":0}],
 "metrics":{
  "counters":[
   {"name":"chaos_faulted_total","labels":{"model":"lenet5"},"value":28},
   {"name":"chaos_faulted_total","labels":{"model":"tiny"},"value":13},
   {"name":"chaos_faults_total","labels":{"kind":"noise_spike","model":"tiny"},"value":13},
   {"name":"chaos_recovered_total","labels":{"model":"lenet5"},"value":12},
   {"name":"chaos_recovered_total","labels":{"model":"tiny"},"value":3},
   {"name":"fhe_ops_total","labels":{"op":"rotate"},"value":87},
   {"name":"pipeline_events_total","labels":{"counter":"maxflow.runs"},"value":12},
   {"name":"serve_admitted_total","labels":{},"value":12},
   {"name":"serve_arrivals_total","labels":{},"value":73},
   {"name":"serve_completed_total","labels":{},"value":11},
   {"name":"serve_shed_total","labels":{"reason":"predicted_miss"},"value":61}],
  "gauges":[
   {"name":"gc_top_heap_words","labels":{},"value":1234567.0},
   {"name":"log_dropped_records","labels":{},"value":0.0},
   {"name":"serve_queue_depth_peak","labels":{},"value":8.0},
   {"name":"trace_dropped_events","labels":{},"value":0.0}],
  "histograms":[
   {"name":"fhe_noise_headroom_bits","labels":{"op":"rotate"},"count":2,"sum":7.0,"min":3.5,"max":3.5,"p50":3.5,"p90":3.5,"p99":3.5,"buckets":[[4.0,2]]},
   {"name":"gc_major_words","labels":{"phase":"plan"},"count":1,"sum":1024.0,"min":1024.0,"max":1024.0,"p50":1024.0,"p90":1024.0,"p99":1024.0,"buckets":[[1024.0,1]]},
   {"name":"gc_major_words","labels":{"phase":"apply"},"count":0,"sum":0.0,"min":null,"max":null,"p50":null,"p90":null,"p99":null,"buckets":[]},
   {"name":"noise_headroom_bits","labels":{"op":"add_cc"},"count":87,"sum":4135.125621604487,"min":43.14801581191209,"max":49.2559395873916,"p50":49.2559395873916,"p90":49.2559395873916,"p99":49.2559395873916,"buckets":[[45.254833995939045,6],[64.0,87]]},
   {"name":"noise_headroom_bits","labels":{"op":"rotate"},"count":87,"sum":3829.24104801294,"min":43.829791543753885,"max":47.47088698014746,"p50":43.829791543753885,"p90":44.46585578189505,"p99":47.47088698014746,"buckets":[[45.254833995939045,84],[64.0,87]]},
   {"name":"service_latency_ms","labels":{},"count":12,"sum":587358.4568348536,"min":24511.87599999999,"max":73378.69628910102,"p50":55938.47500592079,"p90":73378.69628910102,"p99":73378.69628910102,"buckets":[[32768.0,4],[65536.0,8],[92681.90002368316,12]]}]}}|}

let parent_format_verdict =
  {|{"healthy":false,"checks":[{"rule":"noise-headroom","severity":"pass","applicable":true,"value":43.14801581191209,"threshold":4.0,"detail":"minimum traced noise headroom 43.1 bits (floor 4.0)"},{"rule":"recovery-rate","severity":"fail","applicable":true,"value":0.36585365853658536,"threshold":0.9,"detail":"15/41 faulted trials recovered (rate 0.366, floor 0.900)"},{"rule":"slo-attainment","severity":"fail","applicable":true,"value":0.9166666666666666,"threshold":0.95,"detail":"11/12 admitted requests completed in SLO (attainment 0.917, floor 0.950)"},{"rule":"planner-fallbacks","severity":"pass","applicable":true,"value":0.0,"threshold":0.0,"detail":"0 planner tier fallbacks (max 0)"},{"rule":"error-logs","severity":"warn","applicable":true,"value":1.0,"threshold":0.0,"detail":"1 error-level log records"},{"rule":"gc-pressure","severity":"pass","applicable":true,"value":1024.0,"threshold":2e+09,"detail":"1024 major-heap words promoted (ceiling 2000000000)"},{"rule":"ring-overflow","severity":"pass","applicable":true,"value":0.0,"threshold":0.0,"detail":"0 trace events / log records lost to ring wrap-around"}]}|}

let parent_format_flight_same_verdict () =
  match Result.bind (Obs.Json.of_string parent_format_flight) Obs.Flight.of_json with
  | Error e -> Alcotest.failf "older flight does not load: %s" e
  | Ok (records, m) ->
      checki "both records load" 2 (List.length records);
      let v = Obs.Health.evaluate ~records m in
      check Alcotest.string "same verdict" parent_format_verdict
        (Obs.Json.to_string (Obs.Health.to_json v));
      checki "unhealthy exit" 2 (Obs.Health.exit_code v)

(* --- stdout-in-lib lint ---------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "resbm_lint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let lint_flags_raw_stdout () =
  with_temp_dir (fun dir ->
      let lines =
        [
          "let a () = print_endline \"x\"";
          "let b () = print_endline \"y\" (* log-ok: CLI surface *)";
          "let c ppf = Format.pp_print_string ppf \"z\"";
          "let d () = Printf.printf \"%d\" 3";
          "let pretty_print_endline = 1";
        ]
      in
      let oc = open_out (Filename.concat dir "offender.ml") in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let diags =
        List.filter
          (fun d -> d.Analysis.Diag.rule = "stdout-in-lib")
          (Analysis.Lint.scan_planner_sources ~dir)
      in
      checki "two offenders flagged" 2 (List.length diags);
      let flagged_lines =
        List.map
          (fun d ->
            Scanf.sscanf
              (String.concat ":"
                 (List.tl (String.split_on_char ':' d.Analysis.Diag.message)))
              "%d" Fun.id)
          diags
        |> List.sort compare
      in
      checkb "only the raw print and printf lines flagged" true
        (flagged_lines = [ 1; 4 ]);
      checkb "warning severity" true
        (List.for_all
           (fun d -> d.Analysis.Diag.severity = Analysis.Diag.Warning)
           diags))

let suite =
  [
    case "log ring drops oldest records on overflow" ring_overflow_drops_oldest;
    case "ambient context attributes records" ambient_context_attribution;
    case "log jsonl round-trip is exact" jsonl_round_trip;
    case "log instants land on the right process" log_instants_land_on_the_right_process;
    flight_off_identity;
    case "gc_span publishes pressure to ambient metrics" gc_span_publishes_pressure;
    case "metrics json round-trip is stable" metrics_json_round_trip;
    case "health: vacuous run is healthy" health_vacuous_run_is_healthy;
    case "health: recovery floor breach fails" health_recovery_floor_fails;
    case "health: warn-only rules never flip the verdict" health_warn_rules_never_flip;
    case "lint: stdout-in-lib flags raw prints" lint_flags_raw_stdout;
    case "spawned domain starts with an empty context" spawned_domain_starts_empty;
    case "interp publishes the executing node" interp_publishes_executing_node;
    case "flight shapes write only Health's metric families"
      flight_shapes_write_only_health_families;
    case "older flight format loads with the same verdict" parent_format_flight_same_verdict;
  ]
