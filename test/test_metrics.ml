(* Obs.Stat and Obs.Metrics: the median, histogram summary edge cases,
   the trace fold and the JSON round-trip through the strict Obs
   parser. *)
open Test_util

(* --- Stat ----------------------------------------------------------------- *)

let stat_median () =
  checkb "empty median is nan" true (Float.is_nan (Obs.Stat.median []));
  check_float "singleton" 3.0 (Obs.Stat.median [ 3.0 ]);
  check_float "odd count picks the middle" 2.0 (Obs.Stat.median [ 3.0; 1.0; 2.0 ]);
  check_float "even count averages the midpoints" 2.5
    (Obs.Stat.median [ 4.0; 1.0; 2.0; 3.0 ])

(* --- Metrics: histogram summaries ------------------------------------------ *)

let hist_empty_and_unknown () =
  let m = Obs.Metrics.create () in
  checkb "unknown histogram" true (Obs.Metrics.histogram m "h" = None);
  checki "unknown counter reads 0" 0 (Obs.Metrics.counter_value m "c");
  checkb "unknown gauge" true (Obs.Metrics.gauge m "g" = None)

let hist_single_sample () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m "h" 2.5;
  match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h ->
      checki "count" 1 h.Obs.Metrics.hcount;
      check_float "sum" 2.5 h.Obs.Metrics.hsum;
      check_float "min" 2.5 h.Obs.Metrics.hmin;
      check_float "max" 2.5 h.Obs.Metrics.hmax

let hist_all_equal () =
  let m = Obs.Metrics.create () in
  for _ = 1 to 100 do
    Obs.Metrics.observe m "h" 0.125
  done;
  match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h ->
      checki "count" 100 h.Obs.Metrics.hcount;
      check_float "sum exact (0.125 is a power of two)" 12.5 h.Obs.Metrics.hsum;
      check_float "min" 0.125 h.Obs.Metrics.hmin;
      check_float "max" 0.125 h.Obs.Metrics.hmax

let hist_extreme_values () =
  let m = Obs.Metrics.create () in
  (* values 22 orders of magnitude apart keep exact min/max and count *)
  Obs.Metrics.observe m "h" 1e-9;
  Obs.Metrics.observe m "h" 1e13;
  match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h ->
      checki "count" 2 h.Obs.Metrics.hcount;
      check_float "min kept exactly" 1e-9 h.Obs.Metrics.hmin;
      check_float "max kept exactly" 1e13 h.Obs.Metrics.hmax

(* --- Metrics: counters, gauges, labels ------------------------------------- *)

let labels_canonicalised () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m ~labels:[ ("a", "1"); ("b", "2") ] "c";
  Obs.Metrics.incr m ~by:4 ~labels:[ ("b", "2"); ("a", "1") ] "c";
  checki "label order is irrelevant" 5
    (Obs.Metrics.counter_value m ~labels:[ ("a", "1"); ("b", "2") ] "c");
  checki "different labels are a different series" 0
    (Obs.Metrics.counter_value m ~labels:[ ("a", "2"); ("b", "2") ] "c");
  Obs.Metrics.set m "g" 1.5;
  Obs.Metrics.set m "g" 2.5;
  checkb "gauge keeps the last assignment" true (Obs.Metrics.gauge m "g" = Some 2.5)

(* --- JSON round-trip through the strict parser ----------------------------- *)

let metrics_json_roundtrip () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m ~by:2 ~labels:[ ("k", "v") ] "c";
  Obs.Metrics.set m "g" 3.25;
  for i = 1 to 10 do
    Obs.Metrics.observe m ~labels:[ ("op", "x") ] "h" (float_of_int i)
  done;
  let text = Obs.Json.to_string (Obs.Metrics.to_json m) in
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "metrics JSON rejected by the strict parser: %s" e
  | Ok json ->
      let list_len name =
        match Obs.Json.member name json with
        | Some (Obs.Json.List l) -> List.length l
        | _ -> Alcotest.failf "missing %s list" name
      in
      checki "one counter" 1 (list_len "counters");
      checki "one gauge" 1 (list_len "gauges");
      checki "one histogram" 1 (list_len "histograms")

(* --- Folding a trace ------------------------------------------------------- *)

let add_trace_folds () =
  let tr = Obs.Trace.create ~capacity:2 () in
  Obs.Trace.set_ctx tr (Some { Obs.Trace.node = 1; region = 0; freq = 1; cost_ms = 2.0 });
  Obs.Trace.record tr ~op:"mul_cc" ~level:8 ~scale_bits:56 ~size:3 ~noise:1e-9 ();
  Obs.Trace.record tr ~op:"mul_cc" ~level:8 ~scale_bits:56 ~size:3 ~noise:0.25 ();
  Obs.Trace.record tr ~op:"rotate" ~level:8 ~scale_bits:56 ~size:2 ~noise:1e-9 ();
  let m = Obs.Metrics.create () in
  Obs.Metrics.add_trace m tr;
  (* the ring keeps the last two events: one mul_cc, one rotate *)
  (match Obs.Metrics.histogram m ~labels:[ ("op", "mul_cc") ] "noise_headroom_bits" with
  | Some h ->
      checki "surviving mul_cc events" 1 h.Obs.Metrics.hcount;
      check_float "headroom of noise 0.25" 2.0 h.Obs.Metrics.hmin
  | None -> Alcotest.fail "noise_headroom_bits{op=mul_cc} missing");
  checkb "rotate folded under its own label" true
    (Obs.Metrics.histogram m ~labels:[ ("op", "rotate") ] "noise_headroom_bits" <> None);
  checkb "ring loss gauge" true (Obs.Metrics.gauge m "trace_dropped_events" = Some 1.0)

(* --- ambient registry ------------------------------------------------------ *)

let ambient_install () =
  checkb "no ambient registry outside with_metrics" true (Obs.current_metrics () = None);
  (* conveniences are no-ops when nothing is installed *)
  Obs.metric_incr "x";
  let m = Obs.Metrics.create () in
  let v =
    Obs.with_metrics m (fun () ->
        Obs.metric_incr ~by:2 "x";
        17)
  in
  checki "with_metrics returns the callback result" 17 v;
  checkb "restored on exit" true (Obs.current_metrics () = None);
  checki "incr landed" 2 (Obs.Metrics.counter_value m "x")

let suite =
  [
    case "stat: median" stat_median;
    case "hist: empty and unknown series" hist_empty_and_unknown;
    case "hist: single sample" hist_single_sample;
    case "hist: all-equal stream is exact" hist_all_equal;
    case "hist: under/overflow keep exact min/max" hist_extreme_values;
    case "labels canonicalised, gauges overwrite" labels_canonicalised;
    case "metrics JSON round-trips strict parser" metrics_json_roundtrip;
    case "add_trace folds headroom and loss" add_trace_folds;
    case "ambient registry install/restore" ambient_install;
  ]
