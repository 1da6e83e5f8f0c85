(* Obs: timers, the median, counters, minima, spans, JSON round-trip, and
   the compile-pipeline profile regression. *)
open Test_util

(* --- Timer -------------------------------------------------------------- *)

let timer_monotone () =
  let t = Obs.Timer.start () in
  let a = Obs.Timer.elapsed_ms t in
  let b = Obs.Timer.elapsed_ms t in
  checkb "non-negative" true (a >= 0.0);
  checkb "monotone" true (b >= a)

(* --- Stat ----------------------------------------------------------------- *)

let stat_median () =
  checkb "empty median is nan" true (Float.is_nan (Obs.Stat.median []));
  check_float "singleton" 3.0 (Obs.Stat.median [ 3.0 ]);
  check_float "odd count picks the middle" 2.0 (Obs.Stat.median [ 3.0; 1.0; 2.0 ]);
  check_float "even count averages the midpoints" 2.5
    (Obs.Stat.median [ 4.0; 1.0; 2.0; 3.0 ])

(* --- Counters ------------------------------------------------------------ *)

let counter_semantics () =
  let p = Obs.Profile.create () in
  checki "absent counter reads 0" 0 (Obs.Profile.counter p "x");
  Obs.Profile.incr p "x";
  Obs.Profile.incr ~by:41 p "x";
  Obs.Profile.incr p "y";
  checki "accumulates" 42 (Obs.Profile.counter p "x");
  checki "independent" 1 (Obs.Profile.counter p "y");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted listing"
    [ ("x", 42); ("y", 1) ]
    (Obs.Profile.counters p)

let counter_list = Alcotest.(list (pair string int))

(* Handle bumps and by-name increments of one name are one counter, in
   every reader; a handle never bumped stays absent. *)
let counter_handles_share_names () =
  let h = Obs.Counter.make "test.handle" in
  checkb "same name, same handle" true (Obs.Counter.make "test.handle" == h);
  let idle = Obs.Counter.make "test.idle" in
  ignore idle;
  let p = Obs.Profile.create () in
  Obs.with_profile p (fun () ->
      Obs.Counter.bump h;
      Obs.incr ~by:10 "test.handle";
      Obs.Counter.add h 31;
      Obs.Counter.add (Obs.Counter.make "test.zero") 0);
  checki "one counter" 42 (Obs.Profile.counter p "test.handle");
  check counter_list "listing" [ ("test.handle", 42); ("test.zero", 0) ] (Obs.Profile.counters p);
  check Alcotest.string "json"
    {|{"spans":[],"counters":{"test.handle":42,"test.zero":0}}|}
    (Obs.Json.to_string (Obs.Profile.to_json p))

(* A traced run folded in as a trace flight does: the least surviving
   op's noise headroom as a minimum, the ring's loss as a counter. *)
let minimum_and_trace_loss () =
  let tr = Obs.Trace.create ~capacity:2 () in
  Obs.Trace.set_ctx tr (Some { Obs.Trace.node = 1; region = 0; freq = 1; cost_ms = 2.0 });
  Obs.Trace.record tr ~op:"mul_cc" ~level:8 ~scale_bits:56 ~size:3 ~noise:0.5 ();
  Obs.Trace.record tr ~op:"mul_cc" ~level:8 ~scale_bits:56 ~size:3 ~noise:0.25 ();
  Obs.Trace.record tr ~op:"rotate" ~level:8 ~scale_bits:56 ~size:2 ~noise:1e-9 ();
  let p = Obs.Profile.create () in
  checkb "never observed" true (Obs.Profile.minimum p "noise_headroom_bits" = None);
  List.iter
    (fun (e : Obs.Trace.op_event) ->
      Obs.Profile.observe_min p "noise_headroom_bits" (Obs.Trace.headroom_bits e.noise_after))
    (Obs.Trace.op_events tr);
  Obs.Profile.incr ~by:(Obs.Trace.dropped tr) p "trace_dropped_events";
  (* the ring keeps the last two events, so the dropped op's 1 bit does
     not count: the minimum is the noise-0.25 op's 2 bits *)
  checkb "least surviving headroom" true
    (Obs.Profile.minimum p "noise_headroom_bits" = Some 2.0);
  checki "ring loss" 1 (Obs.Profile.counter p "trace_dropped_events");
  Obs.Profile.observe_min p "noise_headroom_bits" 7.0;
  checkb "a larger value keeps the minimum" true
    (Obs.Profile.minimum p "noise_headroom_bits" = Some 2.0);
  check Alcotest.string "json"
    {|{"spans":[],"counters":{"trace_dropped_events":1},"minima":{"noise_headroom_bits":2.0}}|}
    (Obs.Json.to_string (Obs.Profile.to_json p))

let counter_bump_without_profile () =
  let h = Obs.Counter.make "test.unprofiled" in
  let p = Obs.Profile.create () in
  Obs.Counter.bump h;
  Obs.Counter.add h 5;
  checki "nothing recorded" 0 (Obs.Profile.counter p "test.unprofiled");
  check counter_list "no counters" [] (Obs.Profile.counters p)

(* Every planner counter of three compiles, pinned: the handles report
   what the by-name increments did. *)
let compile_counters_pinned () =
  let prm = Ckks.Params.default in
  let counters variant model =
    let g = (Nn.Lowering.lower model).Nn.Lowering.dfg in
    let _, r = Resbm.Variants.compile variant prm g in
    Obs.Profile.counters r.Resbm.Report.profile
  in
  let planner ~candidates ~pruned ~segment_evals ~btsplc ~regions ~aug ~bfs ~cut_edges
      ~runs ?hoists ~computes ~plans ~smoplc () =
    [
      ("btsmgr.candidates", candidates);
      ("btsmgr.pruned", pruned);
      ("btsmgr.segment_evals", segment_evals);
      ("btsplc.cuts", btsplc);
      ("driver.regions", regions);
      ("maxflow.aug_paths", aug);
      ("maxflow.bfs_phases", bfs);
      ("maxflow.cut_edges", cut_edges);
      ("maxflow.runs", runs);
    ]
    @ Option.fold ~none:[] ~some:(fun h -> [ ("ms_opt.hoists", h) ]) hoists
    @ [
        ("region_eval.computes", computes);
        ("scalemgr.plans", plans);
        ("smoplc.cuts", smoplc);
      ]
  in
  check counter_list "tiny"
    (planner ~candidates:12 ~pruned:78 ~segment_evals:90 ~btsplc:15 ~regions:13 ~aug:60
       ~bfs:65 ~cut_edges:56 ~runs:26 ~computes:91 ~plans:13 ~smoplc:11 ())
    (counters Resbm.Variants.resbm Nn.Model.tiny);
  check counter_list "tiny, resbm_max"
    (planner ~candidates:12 ~pruned:78 ~segment_evals:90 ~btsplc:3 ~regions:13 ~aug:26
       ~bfs:30 ~cut_edges:22 ~runs:14 ~hoists:10 ~computes:25 ~plans:13 ~smoplc:11 ())
    (counters Resbm.Variants.resbm_max Nn.Model.tiny);
  check counter_list "resnet20"
    (planner ~candidates:718 ~pruned:2554 ~segment_evals:3468 ~btsplc:115 ~regions:212
       ~aug:946 ~bfs:860 ~cut_edges:846 ~runs:377 ~computes:761 ~plans:212 ~smoplc:262 ())
    (counters Resbm.Variants.resbm Nn.Model.resnet20)

(* --- Spans --------------------------------------------------------------- *)

let span_semantics () =
  let p = Obs.Profile.create () in
  let v = Obs.Profile.span p "outer" (fun () -> Obs.Profile.span p "inner" (fun () -> 7)) in
  checki "returns the callback result" 7 v;
  match Obs.Profile.spans p with
  | [ outer; inner ] ->
      check Alcotest.string "outer first (start order)" "outer" outer.Obs.Profile.name;
      checki "outer at depth 0" 0 outer.Obs.Profile.depth;
      check Alcotest.string "inner second" "inner" inner.Obs.Profile.name;
      checki "inner at depth 1" 1 inner.Obs.Profile.depth;
      checkb "inner no longer than outer" true
        (inner.Obs.Profile.dur_ms <= outer.Obs.Profile.dur_ms +. 1e-6);
      checkb "inner starts after outer" true
        (inner.Obs.Profile.start_ms >= outer.Obs.Profile.start_ms)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let span_records_on_exception () =
  let p = Obs.Profile.create () in
  (try Obs.Profile.span p "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Obs.Profile.spans p with
  | [ s ] ->
      check Alcotest.string "recorded despite raise" "boom" s.Obs.Profile.name;
      checki "depth popped back to 0" 0 s.Obs.Profile.depth
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* --- Ambient profile ------------------------------------------------------ *)

let ambient_noop_and_install () =
  checkb "no ambient profile by default" true (Obs.current () = None);
  (* conveniences must be harmless without a profile *)
  Obs.incr "nope";
  checki "span passes through" 3 (Obs.span "s" (fun () -> 3));
  let p = Obs.Profile.create () in
  Obs.with_profile p (fun () ->
      Obs.incr "hit";
      ignore (Obs.span "timed" (fun () -> ()));
      checkb "installed" true
        (match Obs.current () with Some q -> q == p | None -> false));
  checkb "restored after" true (Obs.current () = None);
  checki "counter recorded" 1 (Obs.Profile.counter p "hit");
  checki "span recorded" 1 (List.length (Obs.Profile.spans p))

let ambient_install_restore () =
  let p = Obs.Profile.create () in
  let v =
    Obs.with_profile p (fun () ->
        Obs.incr ~by:2 "x";
        17)
  in
  checki "with_profile returns the callback result" 17 v;
  checkb "restored on exit" true (Obs.current () = None);
  checki "incr landed" 2 (Obs.Profile.counter p "x")

let ambient_maxflow_counters () =
  let p = Obs.Profile.create () in
  Obs.with_profile p (fun () ->
      let net = Graphlib.Maxflow.create 2 in
      Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1.0;
      ignore (Graphlib.Maxflow.max_flow net ~source:0 ~sink:1));
  checki "maxflow.runs" 1 (Obs.Profile.counter p "maxflow.runs");
  checkb "maxflow.bfs_phases nonzero" true (Obs.Profile.counter p "maxflow.bfs_phases" > 0)

(* --- JSON ----------------------------------------------------------------- *)

let json_roundtrip_handwritten () =
  let v =
    Obs.Json.(
      Obj
        [
          ("a", Int 1);
          ("neg", Int (-42));
          ("f", Float 0.1);
          ("whole", Float 7.0);
          ("big", Float 1e22);
          ("list", List [ Null; Bool true; Bool false; String "x\"\\\n\tesc" ]);
          ("empty_obj", Obj []);
          ("empty_list", List []);
          ("nested", Obj [ ("k", List [ Obj [ ("deep", Int 3) ] ]) ]);
        ])
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> checkb "round-trips exactly" true (v = v')
  | Error m -> Alcotest.fail m

let json_parse_foreign () =
  (* whitespace, \u escapes, and number forms we don't emit ourselves *)
  match Obs.Json.of_string "  { \"k\" : [ 1 , -2.5e1 , \"\\u0041\" , null ] }  " with
  | Ok v ->
      checkb "parsed" true
        (v
        = Obs.Json.Obj
            [ ("k", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float (-25.0); Obs.Json.String "A"; Obs.Json.Null ]) ])
  | Error m -> Alcotest.fail m

let json_rejects_garbage () =
  checkb "trailing garbage" true (Result.is_error (Obs.Json.of_string "{} x"));
  checkb "unterminated string" true (Result.is_error (Obs.Json.of_string "\"abc"));
  checkb "bare word" true (Result.is_error (Obs.Json.of_string "bogus"))

let json_float_roundtrip =
  qcheck ~count:300 "every float round-trips through JSON (or degrades to null)"
    QCheck2.Gen.float
    (fun f ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
      | Ok (Obs.Json.Float f') -> Float.equal f' f
      | Ok Obs.Json.Null -> Float.is_nan f || Float.abs f = infinity
      | _ -> false)

let json_profile_serialisation () =
  let p = Obs.Profile.create () in
  Obs.Profile.incr ~by:3 p "c";
  ignore (Obs.Profile.span p "phase" (fun () -> ()));
  let json = Obs.Profile.to_json p in
  (match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok v -> checkb "profile JSON round-trips" true (v = json)
  | Error m -> Alcotest.fail m);
  match Obs.Json.member "counters" json with
  | Some (Obs.Json.Obj [ ("c", Obs.Json.Int 3) ]) -> ()
  | _ -> Alcotest.fail "counters object malformed"

(* --- Compile-pipeline profile regression ----------------------------------- *)

let compile_profile_regression () =
  let prm = Ckks.Params.default in
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let _, report = Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg in
  let p = report.Resbm.Report.profile in
  let top = List.filter (fun s -> s.Obs.Profile.depth = 0) (Obs.Profile.spans p) in
  let names = List.map (fun s -> s.Obs.Profile.name) top in
  List.iter
    (fun phase -> checkb (phase ^ " phase present") true (List.mem phase names))
    [ "region_build"; "plan"; "apply"; "latency"; "stats" ];
  let sum = List.fold_left (fun acc s -> acc +. s.Obs.Profile.dur_ms) 0.0 top in
  checkb "phase durations sum <= compile_ms" true
    (sum <= report.Resbm.Report.compile_ms +. 0.5);
  checkb "maxflow ran" true (Obs.Profile.counter p "maxflow.runs" > 0);
  checkb "bfs phases counted" true (Obs.Profile.counter p "maxflow.bfs_phases" > 0);
  checkb "augmenting paths counted" true (Obs.Profile.counter p "maxflow.aug_paths" > 0);
  (* the full report serialises and parses back identically *)
  let json = Resbm.Report.to_json report in
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok v -> checkb "report JSON round-trips" true (Obs.Json.to_string v = Obs.Json.to_string json)
  | Error m -> Alcotest.fail m

let ms_opt_hoists_reported () =
  (* ReSBM_max runs the modswitch hoist pass; the count must land in the
     report instead of being dropped on the floor. *)
  let prm = Ckks.Params.default in
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let _, plain = Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg in
  checki "ms_opt off reports 0 hoists" 0 plain.Resbm.Report.ms_opt_hoists;
  let _, maxed = Resbm.Variants.(compile resbm_max) prm lowered.Nn.Lowering.dfg in
  checkb "ms_opt hoist count non-negative" true (maxed.Resbm.Report.ms_opt_hoists >= 0);
  checki "hoist count matches profile counter"
    maxed.Resbm.Report.ms_opt_hoists
    (Obs.Profile.counter maxed.Resbm.Report.profile "ms_opt.hoists")

let suite =
  [
    case "timer: monotone" timer_monotone;
    case "stat: median" stat_median;
    case "counter: semantics" counter_semantics;
    case "counter: handles share names with incr" counter_handles_share_names;
    case "counter: a bump without a profile is a no-op" counter_bump_without_profile;
    case "minimum: trace headroom and ring loss" minimum_and_trace_loss;
    case "counter: compile counters pinned" compile_counters_pinned;
    case "span: nesting and results" span_semantics;
    case "span: recorded on exception" span_records_on_exception;
    case "ambient: no-op without profile, records with one" ambient_noop_and_install;
    case "ambient: with_profile install/restore" ambient_install_restore;
    case "ambient: maxflow reports counters" ambient_maxflow_counters;
    case "json: handwritten round-trip" json_roundtrip_handwritten;
    case "json: parses foreign input" json_parse_foreign;
    case "json: rejects garbage" json_rejects_garbage;
    json_float_roundtrip;
    case "json: profile serialisation" json_profile_serialisation;
    case "profile: tiny-model compile regression" compile_profile_regression;
    case "profile: ms_opt hoists reported" ms_opt_hoists_reported;
  ]
