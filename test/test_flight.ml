(* The flight-deck observability tier: the Log ring buffer (overflow,
   filtering, ambient context, JSONL round-trip) and its Perfetto
   instants, Health verdicts and exit codes, gc_span metric
   publication, the stdout-in-lib source lint — and the headline
   contract that installing all of it changes no compile result bit. *)
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
  checki "nothing filtered" 0 (Obs.Log.filtered sink);
  let survivors = Obs.Log.records sink in
  checki "capacity survivors" 4 (List.length survivors);
  checkb "newest records survive, chronological" true
    (List.map (fun r -> r.Obs.Log.lseq) survivors = [ 6; 7; 8; 9 ]);
  checkb "events match sequence" true
    (List.map (fun r -> r.Obs.Log.event) survivors = [ "e6"; "e7"; "e8"; "e9" ])

let min_level_filters () =
  let sink = Obs.Log.create ~min_level:Obs.Log.Warn () in
  List.iter
    (fun level -> Obs.Log.record sink ~level ~event:"e" ())
    [ Obs.Log.Debug; Obs.Log.Info; Obs.Log.Warn; Obs.Log.Error ];
  checki "below-threshold records rejected" 2 (Obs.Log.filtered sink);
  checki "warn and error kept" 2 (Obs.Log.recorded sink);
  checkb "kept levels" true
    (List.map (fun r -> r.Obs.Log.level) (Obs.Log.records sink)
    = [ Obs.Log.Warn; Obs.Log.Error ])

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
  let records = Obs.Log.records sink in
  (match Obs.Log.of_jsonl (Obs.Log.to_jsonl sink) with
  | Error m -> Alcotest.failf "of_jsonl failed: %s" m
  | Ok back -> checkb "to_jsonl/of_jsonl is the identity" true (back = records));
  List.iter
    (fun r ->
      match Obs.Log.record_of_json (Obs.Log.record_to_json r) with
      | Error m -> Alcotest.failf "record_of_json failed: %s" m
      | Ok r' -> checkb "record json round-trip" true (r' = r))
    records;
  (* blank lines are tolerated between records *)
  match Obs.Log.of_jsonl ("" :: Obs.Log.to_jsonl sink @ [ "" ]) with
  | Error m -> Alcotest.failf "blank-line of_jsonl failed: %s" m
  | Ok back -> checki "blank lines skipped" 2 (List.length back)

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
     Obs.Metrics.histogram ~labels:[ ("phase", "flight_phase") ] m "gc_minor_words"
   with
  | None -> Alcotest.fail "gc_minor_words{flight_phase} not published"
  | Some h -> checkb "one observation, non-negative" true
        (h.Obs.Metrics.hcount = 1 && h.Obs.Metrics.hsum >= 0.0));
  checkb "peak heap gauge set" true (Obs.Metrics.gauge m "gc_top_heap_words" <> None);
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
  (* a relaxed floor flips the same registry back to healthy *)
  let relaxed =
    { Obs.Health.default_thresholds with Obs.Health.recovery_rate_floor = 0.4 }
  in
  let v' = Obs.Health.evaluate ~thresholds:relaxed m in
  checkb "relaxed floor passes" true v'.Obs.Health.healthy

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

let health_refutations_fail_from_logs () =
  (* The refutation rule reads both the metrics counters and the log
     stream, so a flight file with records but no counters still gates. *)
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () ->
      Obs.log_error ~event:"certify.refuted" "certificate mismatch");
  let v =
    Obs.Health.evaluate ~records:(Obs.Log.records sink) (Obs.Metrics.create ())
  in
  let c = find_check "refutations" v in
  checkb "refutation seen through the log stream" true
    (c.Obs.Health.severity = Obs.Health.Fail);
  checkb "verdict unhealthy" false v.Obs.Health.healthy;
  (* and the json export carries the verdict for --json consumers *)
  checkb "json verdict field" true
    (Obs.Json.member "healthy" (Obs.Health.to_json v) = Some (Obs.Json.Bool false))

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
    case "log min-level filtering" min_level_filters;
    case "ambient context attributes records" ambient_context_attribution;
    case "log jsonl round-trip is exact" jsonl_round_trip;
    case "log instants land on the right process" log_instants_land_on_the_right_process;
    flight_off_identity;
    case "gc_span publishes pressure to ambient metrics" gc_span_publishes_pressure;
    case "metrics json round-trip is stable" metrics_json_round_trip;
    case "health: vacuous run is healthy" health_vacuous_run_is_healthy;
    case "health: recovery floor breach fails" health_recovery_floor_fails;
    case "health: warn-only rules never flip the verdict" health_warn_rules_never_flip;
    case "health: refutations gate from the log stream" health_refutations_fail_from_logs;
    case "lint: stdout-in-lib flags raw prints" lint_flags_raw_stdout;
    case "spawned domain starts with an empty context" spawned_domain_starts_empty;
    case "interp publishes the executing node" interp_publishes_executing_node;
  ]
