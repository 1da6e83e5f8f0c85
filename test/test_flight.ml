(* The flight-deck observability tier: the Log ring buffer (overflow,
   ambient context, JSON round-trip) and its Perfetto instants, Health
   verdicts and exit codes, the flight file's round-trip and version
   check, the counters each flight shape writes, the stdout-in-lib source
   lint — and the headline contract that installing all of it changes no
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
  Obs.with_log sink @@ fun () ->
  Obs.with_log_ctx ~compile_id:5 ~pass:"plan" @@ fun () ->
  Obs.set_node ~region:2 9;
  let child =
    Domain.spawn (fun () ->
        let fresh =
          Obs.current () = None
          && Obs.current_trace () = None
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
        Obs.with_profile (Obs.Profile.create ()) @@ fun () ->
        compile (build_random_dfg params)
      in
      plain = flown)

(* A flight profile with spans, counters and a minimum survives the file
   format: the loaded profile serialises to the section it was read
   from, the sink's loss included. *)
let metrics_json_round_trip () =
  let sink = Obs.Log.create ~capacity:2 () in
  for _ = 1 to 8 do
    Obs.Log.record sink ~level:Obs.Log.Info ~event:"e" ()
  done;
  let p = Obs.Profile.create () in
  Obs.Profile.incr ~by:3 p "chaos_faulted_total";
  Obs.Profile.incr p "interp.programs";
  ignore (Obs.Profile.span p "phase" (fun () -> ()));
  List.iter (Obs.Profile.observe_min p "noise_headroom_bits") [ 12.0; 5.5; 7.25 ];
  let flight = Obs.Flight.to_json sink p in
  match Result.bind (Obs.Json.of_string (Obs.Json.to_string flight)) Obs.Flight.of_json with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok (records, p') ->
      checki "surviving records load" 2 (List.length records);
      checki "sink loss carried in the file" 6 (Obs.Profile.counter p' "log_dropped_records");
      checkb "minimum carried" true (Obs.Profile.minimum p' "noise_headroom_bits" = Some 5.5);
      check Alcotest.string "profile section stable"
        (Obs.Json.to_string (Option.get (Obs.Json.member "profile" flight)))
        (Obs.Json.to_string (Obs.Profile.to_json p'));
      let malformed = {|{"resbm_flight":2,"profile":{"counters":{"x":1.5}}}|} in
      checkb "a non-integer counter is refused" true
        (Result.bind (Obs.Json.of_string malformed) Obs.Flight.of_json
        = Error "bad profile section: counter x has no integer value")

(* Export reads the ledger and writes the sink's loss into the document
   only, so a second export is the same bytes and the profile is left as
   it was. *)
let export_twice_is_identical () =
  let sink = Obs.Log.create ~capacity:1 () in
  Obs.Log.record sink ~level:Obs.Log.Info ~event:"a" ();
  Obs.Log.record sink ~level:Obs.Log.Warn ~event:"b" ();
  let p = Obs.Profile.create () in
  Obs.Profile.incr ~by:2 p "chaos_faulted_total";
  let first = Obs.Json.to_string (Obs.Flight.to_json sink p) in
  let second = Obs.Json.to_string (Obs.Flight.to_json sink p) in
  check Alcotest.string "byte-identical" first second;
  check
    Alcotest.(list (pair string int))
    "ledger untouched"
    [ ("chaos_faulted_total", 2) ]
    (Obs.Profile.counters p)

(* --- health --------------------------------------------------------------- *)

let find_check rule (v : Obs.Health.verdict) =
  match List.find_opt (fun c -> c.Obs.Health.rule = rule) v.Obs.Health.checks with
  | Some c -> c
  | None -> Alcotest.failf "rule %s missing from the verdict" rule

let health_vacuous_run_is_healthy () =
  let v = Obs.Health.evaluate (Obs.Profile.create ()) in
  checkb "nothing measured, nothing failed" true v.Obs.Health.healthy;
  checki "exit code" 0 (Obs.Health.exit_code v);
  List.iter
    (fun rule ->
      let c = find_check rule v in
      checkb (rule ^ " inapplicable") false c.Obs.Health.applicable;
      checkb (rule ^ " passes vacuously") true (c.Obs.Health.severity = Obs.Health.Pass))
    [ "noise-headroom"; "recovery-rate"; "slo-attainment" ]

let health_recovery_floor_fails () =
  let p = Obs.Profile.create () in
  Obs.Profile.incr ~by:10 p "chaos_faulted_total";
  Obs.Profile.incr ~by:5 p "chaos_recovered_total";
  let v = Obs.Health.evaluate p in
  let c = find_check "recovery-rate" v in
  checkb "applicable once trials faulted" true c.Obs.Health.applicable;
  check_float "measured rate" 0.5 c.Obs.Health.value;
  checkb "0.5 < 0.9 floor fails" true (c.Obs.Health.severity = Obs.Health.Fail);
  checkb "verdict unhealthy" false v.Obs.Health.healthy;
  checki "exit code" 2 (Obs.Health.exit_code v);
  check_float "fixed floor" 0.9 c.Obs.Health.threshold;
  (* 9/10 sits exactly on the floor and passes *)
  Obs.Profile.incr ~by:4 p "chaos_recovered_total";
  checkb "rate on the floor passes" true (Obs.Health.evaluate p).Obs.Health.healthy

let health_warn_rules_never_flip () =
  (* Error-level logs and ring overflow are anomalies worth surfacing but
     not gating: severity Warn, verdict stays healthy. *)
  let p = Obs.Profile.create () in
  Obs.Profile.incr ~by:3 p "log_dropped_records";
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () -> Obs.log_error ~event:"run.failed" "boom");
  let v = Obs.Health.evaluate ~records:(Obs.Log.records sink) p in
  checkb "error-logs warns" true
    ((find_check "error-logs" v).Obs.Health.severity = Obs.Health.Warn);
  checkb "ring-overflow warns" true
    ((find_check "ring-overflow" v).Obs.Health.severity = Obs.Health.Warn);
  checkb "warn-only rules keep the verdict healthy" true v.Obs.Health.healthy;
  checki "exit code" 0 (Obs.Health.exit_code v)

(* --- flight shapes ---------------------------------------------------------- *)

(* Run [f] under a fresh log sink and profile, as [--log-out] does, and
   return the flight file written after it. *)
let flight_of f =
  let sink = Obs.Log.create () and p = Obs.Profile.create () in
  Obs.with_log sink (fun () -> Obs.with_profile p (fun () -> f p));
  (sink, p, Obs.Flight.to_json sink p)

let names section flight =
  match Option.bind (Obs.Json.member "profile" flight) (Obs.Json.member section) with
  | Some (Obs.Json.Obj fs) -> List.map fst fs
  | _ -> []

let tiny_serve =
  {
    Serving.Scheduler.default with
    Serving.Scheduler.model = "tiny";
    l_max = 9;
    dim = 16;
    max_batch = 4;
    arrival = Serving.Scheduler.Poisson 40.0;
    duration_ms = 300.0;
    chaos_rate = 0.1;
  }

let tiny_chaos = { Resilience.Chaos.default with Resilience.Chaos.trials = 4; dim = 16 }

(* A trace flight as the [trace] command writes it: the run's counters,
   then the surviving ops' least noise headroom and the ring's loss. *)
let traced_fig1 p =
  let prm = Ckks.Params.fig1 in
  let managed, _ = Resbm.Driver.compile prm (fig1_block ()) in
  let env =
    { Fhe_ir.Interp.inputs = [ ("x", input_env ~dim:8 5L) ]; consts = const_env ~dim:8 }
  in
  let tr = Obs.Trace.create () in
  ignore (Fhe_ir.Interp.run ~trace:tr (Ckks.Evaluator.create prm) managed env);
  List.iter
    (fun (e : Obs.Trace.op_event) ->
      Obs.Profile.observe_min p "noise_headroom_bits" (Obs.Trace.headroom_bits e.noise_after))
    (Obs.Trace.op_events tr);
  Obs.Profile.incr ~by:(Obs.Trace.dropped tr) p "trace_dropped_events"

(* Each flight shape's counters and minima, pinned.  A compile keeps its
   own profile, so a compile flight holds only the sink's loss; the
   runtime counters (programs prepared, values validated) reach chaos,
   serve and trace flights next to the counts Health reads.  Every name a
   Health rule reads from a shape is in that shape. *)
let flight_shapes_pin_counter_names () =
  let tiny () = (Nn.Lowering.lower Nn.Model.tiny).Nn.Lowering.dfg in
  (* shape, run, counters, minima, the names a Health rule reads there *)
  let shapes =
    [
      ( "compile",
        (fun _ -> ignore (Resbm.Variants.compile Resbm.Variants.resbm prm (tiny ()))),
        [ "log_dropped_records" ],
        [],
        [ "log_dropped_records" ] );
      ( "trace",
        traced_fig1,
        [ "interp.programs"; "log_dropped_records"; "trace_dropped_events" ],
        [ "noise_headroom_bits" ],
        [ "log_dropped_records"; "noise_headroom_bits"; "trace_dropped_events" ] );
      ( "chaos",
        (fun _ -> ignore (Resilience.Chaos.run tiny_chaos)),
        [
          "chaos_faulted_total";
          "chaos_recovered_total";
          "interp.programs";
          "log_dropped_records";
          "recovery.validations";
        ],
        [],
        [ "chaos_faulted_total"; "chaos_recovered_total"; "log_dropped_records" ] );
      ( "serve",
        (fun _ -> ignore (Serving.Scheduler.run tiny_serve)),
        [
          "interp.programs";
          "log_dropped_records";
          "recovery.validations";
          "serve_admitted_total";
          "serve_completed_total";
        ],
        [],
        [ "log_dropped_records"; "serve_admitted_total"; "serve_completed_total" ] );
    ]
  in
  List.iter
    (fun (shape, run, counters, minima, reads) ->
      let _, _, flight = flight_of run in
      check Alcotest.(list string) (shape ^ " counters") counters (names "counters" flight);
      check Alcotest.(list string) (shape ^ " minima") minima (names "minima" flight);
      List.iter
        (fun n -> checkb (shape ^ " carries " ^ n) true (List.mem n (counters @ minima)))
        reads)
    shapes

(* Health judges a flight the same in memory and after the file
   round-trip, on each shape that makes a rule applicable. *)
let verdict_survives_round_trip () =
  List.iter
    (fun (shape, run) ->
      let sink, p, flight = flight_of run in
      let in_memory = Obs.Health.evaluate ~records:(Obs.Log.records sink) p in
      match Obs.Flight.of_json flight with
      | Error e -> Alcotest.failf "%s flight does not load: %s" shape e
      | Ok (records, p') ->
          check Alcotest.string (shape ^ " verdict")
            (Obs.Json.to_string (Obs.Health.to_json in_memory))
            (Obs.Json.to_string (Obs.Health.to_json (Obs.Health.evaluate ~records p'))))
    [
      ("trace", traced_fig1);
      ("chaos", fun _ -> ignore (Resilience.Chaos.run tiny_chaos));
      ("serve", fun _ -> ignore (Serving.Scheduler.run tiny_serve));
    ]

(* The facts of a flight the previous file format judged (two records,
   41 faulted and 15 recovered chaos trials over two models, 11 of 12
   admitted requests in SLO, a 43.148-bit headroom minimum) in the
   current format, beside counters no rule reads.  Its verdict is the one
   the older evaluator gave, byte for byte, less its check of the deleted
   major-heap GC rule. *)
let v2_flight = {|{"resbm_flight":2,
 "records":[
  {"seq":0,"level":"info","event":"compile.done","msg":"compiled","ts_ms":1.5,"compile_id":0,"pass":"","region":-1,"node":-1,"domain":0,"fields":{"manager":"resbm"}},
  {"seq":1,"level":"error","event":"run.failed","msg":"boom","ts_ms":2.0,"sim_ms":12.5,"compile_id":-1,"pass":"","region":3,"node":17,"domain":0}],
 "profile":{
  "spans":[],
  "counters":{"chaos_faulted_total":41,"chaos_recovered_total":15,"interp.programs":2,
   "log_dropped_records":0,"recovery.validations":5213,"serve_admitted_total":12,
   "serve_completed_total":11,"trace_dropped_events":0},
  "minima":{"noise_headroom_bits":43.14801581191209}}}|}

let parent_format_verdict =
  {|{"healthy":false,"checks":[{"rule":"noise-headroom","severity":"pass","applicable":true,"value":43.14801581191209,"threshold":4.0,"detail":"minimum traced noise headroom 43.1 bits (floor 4.0)"},{"rule":"recovery-rate","severity":"fail","applicable":true,"value":0.36585365853658536,"threshold":0.9,"detail":"15/41 faulted trials recovered (rate 0.366, floor 0.900)"},{"rule":"slo-attainment","severity":"fail","applicable":true,"value":0.9166666666666666,"threshold":0.95,"detail":"11/12 admitted requests completed in SLO (attainment 0.917, floor 0.950)"},{"rule":"error-logs","severity":"warn","applicable":true,"value":1.0,"threshold":0.0,"detail":"1 error-level log records"},{"rule":"ring-overflow","severity":"pass","applicable":true,"value":0.0,"threshold":0.0,"detail":"0 trace events / log records lost to ring wrap-around"}]}|}

let v2_flight_same_verdict () =
  match Result.bind (Obs.Json.of_string v2_flight) Obs.Flight.of_json with
  | Error e -> Alcotest.failf "flight does not load: %s" e
  | Ok (records, p) ->
      checki "both records load" 2 (List.length records);
      let v = Obs.Health.evaluate ~records p in
      check Alcotest.string "same verdict" parent_format_verdict
        (Obs.Json.to_string (Obs.Health.to_json v));
      checki "unhealthy exit" 2 (Obs.Health.exit_code v)

(* A file in the previous flight format is refused, naming its version,
   not judged on an empty profile. *)
let v1_flight_refused () =
  let v1 = {|{"resbm_flight":1,"records":[],"metrics":{"counters":[],"gauges":[],"histograms":[]}}|} in
  match Result.bind (Obs.Json.of_string v1) Obs.Flight.of_json with
  | Ok _ -> Alcotest.fail "a version-1 flight loaded"
  | Error e ->
      check Alcotest.string "error names the version"
        "flight file version 1 is not supported (this build reads version 2)" e

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
    case "metrics json round-trip is stable" metrics_json_round_trip;
    case "export twice is byte-identical" export_twice_is_identical;
    case "health: vacuous run is healthy" health_vacuous_run_is_healthy;
    case "health: recovery floor breach fails" health_recovery_floor_fails;
    case "health: warn-only rules never flip the verdict" health_warn_rules_never_flip;
    case "lint: stdout-in-lib flags raw prints" lint_flags_raw_stdout;
    case "spawned domain starts with an empty context" spawned_domain_starts_empty;
    case "interp publishes the executing node" interp_publishes_executing_node;
    case "flight shapes pin their counter names" flight_shapes_pin_counter_names;
    case "health verdict survives the flight round-trip" verdict_survives_round_trip;
    case "new flight format keeps the older verdict" v2_flight_same_verdict;
    case "older flight format is refused by its version" v1_flight_refused;
  ]
