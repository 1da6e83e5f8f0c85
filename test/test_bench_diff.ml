(* Obs.Bench_diff: bench-file loading diagnostics, row alignment, verdicts
   for deterministic metrics and counters, the warm-speedup floor, NaN
   semantics, and the gate's exit-code contract. *)
open Test_util

let metrics ?(latency = 100.0) ?(bts = 10.0) ?(rescales = 20.0) ?(nodes = 50.0)
    ?(precision = 30.0) () =
  [
    ("latency_ms", latency);
    ("bootstrap_count", bts);
    ("executed_rescales", rescales);
    ("nodes", nodes);
    ("predicted_precision_bits", precision);
  ]

let row ?(warm_speedup = 100.0) ?(counters = []) model manager metrics =
  {
    Obs.Bench_diff.model;
    manager;
    metrics;
    warm_speedup;
    digest = Obs.Json.Obj [];
    counters;
  }

let src ?(l_max = 16) rows =
  { Obs.Bench_diff.version = Obs.Bench_diff.schema_version; git_rev = "test"; l_max; rows }

let diff_ok base cand =
  match Obs.Bench_diff.diff ~base ~cand with
  | Ok o -> o
  | Error m -> Alcotest.failf "diff failed: %s" m

let verdict_of o metric =
  match
    List.find_opt (fun c -> c.Obs.Bench_diff.metric = metric) o.Obs.Bench_diff.cells
  with
  | Some c -> c.Obs.Bench_diff.verdict
  | None -> Alcotest.failf "no cell for %s" metric

(* --- alignment and verdicts ------------------------------------------------ *)

let identical_passes () =
  let s = src [ row "ResNet20" "ReSBM" (metrics ()) ] in
  let o = diff_ok s s in
  checki "five metric cells and the warm-speedup cell" 6
    (List.length o.Obs.Bench_diff.cells);
  checkb "all unchanged" true
    (List.for_all
       (fun c -> c.Obs.Bench_diff.verdict = Obs.Bench_diff.Unchanged)
       o.Obs.Bench_diff.cells);
  checkb "no drift" true (Obs.Bench_diff.changes o = []);
  checki "gate passes" 0 (Obs.Bench_diff.exit_code o)

let direction_semantics () =
  let base = src [ row "m" "g" (metrics ()) ] in
  (* lower-is-better metric moving up regresses *)
  let o = diff_ok base (src [ row "m" "g" (metrics ~latency:120.0 ()) ]) in
  checkb "latency up regresses" true
    (verdict_of o "latency_ms" = Obs.Bench_diff.Regressed);
  checki "regression gates" 2 (Obs.Bench_diff.exit_code o);
  (* lower-is-better metric moving down improves — and still gates,
     because it invalidates the committed baseline *)
  let o = diff_ok base (src [ row "m" "g" (metrics ~bts:8.0 ()) ]) in
  checkb "bootstrap count down improves" true
    (verdict_of o "bootstrap_count" = Obs.Bench_diff.Improved);
  checki "improvement still fails `Changed" 2 (Obs.Bench_diff.exit_code o);
  (* higher-is-better direction flips the reading *)
  let o = diff_ok base (src [ row "m" "g" (metrics ~precision:35.0 ()) ]) in
  checkb "precision up improves" true
    (verdict_of o "predicted_precision_bits" = Obs.Bench_diff.Improved);
  let o = diff_ok base (src [ row "m" "g" (metrics ~precision:25.0 ()) ]) in
  checkb "precision down regresses" true
    (verdict_of o "predicted_precision_bits" = Obs.Bench_diff.Regressed)

let misaligned_rows_gate () =
  let base = src [ row "m" "ReSBM" (metrics ()); row "m" "Fhelipe" (metrics ()) ] in
  let cand = src [ row "m" "ReSBM" (metrics ()); row "m2" "ReSBM" (metrics ()) ] in
  let o = diff_ok base cand in
  checkb "dropped manager reported" true
    (o.Obs.Bench_diff.missing = [ ("m", "Fhelipe") ]);
  checkb "new model reported" true (o.Obs.Bench_diff.added = [ ("m2", "ReSBM") ]);
  checki "misalignment fails `Changed" 2 (Obs.Bench_diff.exit_code o)

let nan_semantics () =
  let base = src [ row "m" "g" (metrics ~precision:nan ()) ] in
  (* NaN on both sides is the same (missing) measurement, not a change *)
  let o = diff_ok base (src [ row "m" "g" (metrics ~precision:nan ()) ]) in
  checkb "nan == nan is unchanged" true
    (verdict_of o "predicted_precision_bits" = Obs.Bench_diff.Unchanged);
  checki "both-nan passes" 0 (Obs.Bench_diff.exit_code o);
  (* a measurement appearing or vanishing is incomparable and gates *)
  let o = diff_ok base (src [ row "m" "g" (metrics ~precision:30.0 ()) ]) in
  checkb "one-sided nan is incomparable" true
    (verdict_of o "predicted_precision_bits" = Obs.Bench_diff.Incomparable);
  checki "incomparable fails `Changed" 2 (Obs.Bench_diff.exit_code o)

(* --- warm-cache contract ---------------------------------------------------- *)

(* The candidate's cold/warm ratio must reach 5: below it the cell
   regresses and fails the gate, at it the cell passes.  The
   baseline's own ratio is host time and never compared. *)
let warm_speedup_gate () =
  let base = src [ row ~warm_speedup:2000.0 "m" "g" (metrics ()) ] in
  let o = diff_ok base (src [ row ~warm_speedup:4.9 "m" "g" (metrics ()) ]) in
  checkb "4.9 regresses" true (verdict_of o "warm_speedup" = Obs.Bench_diff.Regressed);
  checki "4.9 fails `Changed" 2 (Obs.Bench_diff.exit_code o);
  let o = diff_ok base (src [ row ~warm_speedup:5.0 "m" "g" (metrics ()) ]) in
  checkb "5.0 is unchanged" true (verdict_of o "warm_speedup" = Obs.Bench_diff.Unchanged);
  checki "5.0 passes `Changed" 0 (Obs.Bench_diff.exit_code o);
  let o = diff_ok base (src [ row ~warm_speedup:nan "m" "g" (metrics ()) ]) in
  checki "an unmeasured ratio fails" 2 (Obs.Bench_diff.exit_code o)

(* --- loading --------------------------------------------------------------- *)

let manager_row =
  {|{"manager": "g", "latency_ms": 100.0, "bootstrap_count": 10, "nodes": 50,
     "predicted_precision_bits": null, "warm_speedup": 900.5,
     "counters": {"maxflow.runs": 423, "smoplc.cuts": 276},
     "plan_digest": {"headline": {"bootstrap_count": 10}}}|}

let bench_file ?(version = Obs.Bench_diff.schema_version) ?(manager = manager_row) () =
  Printf.sprintf
    {|{"bench": "resbm", "schema_version": %d, "git_rev": "abc", "l_max": 16,
       "models": [{"model": "m", "managers": [%s]}]}|}
    version manager

(* [manager_row] without one of its fields. *)
let without field =
  match Obs.Json.of_string manager_row with
  | Ok (Obs.Json.Obj kvs) ->
      Obs.Json.to_string (Obs.Json.Obj (List.remove_assoc field kvs))
  | _ -> Alcotest.fail "bad fixture"

let load_diagnostics () =
  let err s =
    match Obs.Bench_diff.load s with
    | Error m -> m
    | Ok _ -> Alcotest.fail "load accepted a bad file"
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  checkb "non-JSON is called out" true (starts_with "not valid JSON" (err "nonsense"));
  checkb "foreign JSON is called out" true
    (starts_with "not a resbm bench file" (err {|{"other": 1}|}));
  checkb "unversioned files are refused" true
    (starts_with "unversioned bench file" (err {|{"bench": "resbm", "l_max": 16}|}));
  checkb "future versions are refused with the version named" true
    (starts_with "schema_version 99 is not supported" (err (bench_file ~version:99 ())));
  check Alcotest.string "schema 2 files are refused with a regenerate hint"
    "schema_version 2 is not supported (this build reads version 3); regenerate both \
     files with `bench -- json`"
    (err (bench_file ~version:2 ()));
  let row_errors =
    List.map
      (fun field -> err (bench_file ~manager:(without field) ()))
      [ "plan_digest"; "counters"; "warm_speedup" ]
  in
  check (Alcotest.list Alcotest.string) "rows missing a required field are refused"
    [
      "row m/g has no plan_digest";
      "row m/g has no counters object";
      "row m/g has no warm_speedup";
    ]
    row_errors

let load_roundtrip () =
  match Obs.Bench_diff.load (bench_file ()) with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok s ->
      checki "version" Obs.Bench_diff.schema_version s.Obs.Bench_diff.version;
      check Alcotest.string "git_rev" "abc" s.Obs.Bench_diff.git_rev;
      checki "one row" 1 (List.length s.Obs.Bench_diff.rows);
      let r = List.hd s.Obs.Bench_diff.rows in
      checkb "int cells read as floats" true
        (List.assoc_opt "bootstrap_count" r.Obs.Bench_diff.metrics = Some 10.0);
      checkb "null cells read as nan" true
        (match List.assoc_opt "predicted_precision_bits" r.Obs.Bench_diff.metrics with
        | Some v -> Float.is_nan v
        | None -> false);
      checkb "absent cells stay absent" true
        (List.assoc_opt "executed_rescales" r.Obs.Bench_diff.metrics = None);
      check_float "warm speedup" 900.5 r.Obs.Bench_diff.warm_speedup;
      checkb "plan digest kept verbatim" true
        (r.Obs.Bench_diff.digest
        = Obs.Json.Obj
            [ ("headline", Obs.Json.Obj [ ("bootstrap_count", Obs.Json.Int 10) ]) ])

let l_max_mismatch () =
  let base = src ~l_max:16 [ row "m" "g" (metrics ()) ] in
  let cand = src ~l_max:12 [ row "m" "g" (metrics ()) ] in
  match Obs.Bench_diff.diff ~base ~cand with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "diff compared files from different sweeps"

(* --- report JSON ----------------------------------------------------------- *)

let outcome_json_roundtrip () =
  let base = src [ row "m" "g" (metrics ()); row "m" "h" (metrics ()) ] in
  let cand = src [ row "m" "g" (metrics ~latency:90.0 ()) ] in
  let o = diff_ok base cand in
  let text = Obs.Json.to_string (Obs.Bench_diff.outcome_to_json o) in
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "report rejected by the strict parser: %s" e
  | Ok json ->
      (match Obs.Json.member "summary" json with
      | Some summary ->
          checkb "summary counts improvements" true
            (Obs.Json.member "improved" summary = Some (Obs.Json.Int 1))
      | None -> Alcotest.fail "no summary object");
      (match Obs.Json.member "missing" json with
      | Some (Obs.Json.List [ _ ]) -> ()
      | _ -> Alcotest.fail "missing rows not reported")

(* --- work counters ------------------------------------------------------- *)

(* Counters gate exactly: fewer max-flow runs for the same plan is drift,
   as a better bootstrap count is; a counter that drops to zero leaves the
   profile and reads as 0. *)
let counters_gate_exactly () =
  let base_counters =
    [ ("maxflow.runs", 3941); ("btsplc.cuts", 65); ("smoplc.cuts", 3240) ]
  in
  let base = src [ row ~counters:base_counters "m" "g" (metrics ()) ] in
  let o = diff_ok base base in
  checki "one cell per counter" 9 (List.length o.Obs.Bench_diff.cells);
  checki "identical counters pass" 0 (Obs.Bench_diff.exit_code o);
  let cand =
    src
      [
        row
          ~counters:[ ("maxflow.runs", 423); ("btsplc.cuts", 136) ]
          "m" "g" (metrics ());
      ]
  in
  let o = diff_ok base cand in
  checkb "fewer runs improve" true
    (verdict_of o "counters.maxflow.runs" = Obs.Bench_diff.Improved);
  checkb "a vanished counter reads as zero" true
    (verdict_of o "counters.smoplc.cuts" = Obs.Bench_diff.Improved);
  checki "an improvement still fails `Changed" 2 (Obs.Bench_diff.exit_code o);
  let o = diff_ok cand base in
  checkb "more work regresses" true
    (verdict_of o "counters.maxflow.runs" = Obs.Bench_diff.Regressed)

let load_reads_counters () =
  let empty =
    {|{"manager": "h", "latency_ms": 1.0, "warm_speedup": 10, "counters": {},
       "plan_digest": {}}|}
  in
  match Obs.Bench_diff.load (bench_file ~manager:(manager_row ^ "," ^ empty) ()) with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok s -> (
      match s.Obs.Bench_diff.rows with
      | [ g; h ] ->
          checkb "counters read" true
            (g.Obs.Bench_diff.counters = [ ("maxflow.runs", 423); ("smoplc.cuts", 276) ]);
          checkb "an empty counters object reads as no counters" true
            (h.Obs.Bench_diff.counters = [])
      | _ -> Alcotest.fail "expected two rows")

let suite =
  [
    case "identical files pass the gate" identical_passes;
    case "verdicts follow each metric's direction" direction_semantics;
    case "missing and added rows always gate" misaligned_rows_gate;
    case "nan cells: equal-missing vs incomparable" nan_semantics;
    case "warm_speedup gates the plan-cache floor" warm_speedup_gate;
    case "load rejects bad files with distinct diagnostics" load_diagnostics;
    case "load reads header, cells, nan and absences" load_roundtrip;
    case "different l_max refuses to diff" l_max_mismatch;
    case "outcome report JSON round-trips" outcome_json_roundtrip;
    case "work counters gate exactly" counters_gate_exactly;
    case "load reads the counters object" load_reads_counters;
  ]
