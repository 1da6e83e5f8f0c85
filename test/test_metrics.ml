(* Obs.Stat and Obs.Metrics: the median, histogram bucket and quantile
   edge cases and the JSON round-trip through the strict Obs parser. *)
open Test_util

(* --- Stat ----------------------------------------------------------------- *)

let stat_median () =
  checkb "empty median is nan" true (Float.is_nan (Obs.Stat.median []));
  check_float "singleton" 3.0 (Obs.Stat.median [ 3.0 ]);
  check_float "odd count picks the middle" 2.0 (Obs.Stat.median [ 3.0; 1.0; 2.0 ]);
  check_float "even count averages the midpoints" 2.5
    (Obs.Stat.median [ 4.0; 1.0; 2.0; 3.0 ])

(* --- Metrics: histograms --------------------------------------------------- *)

let hist_empty_and_unknown () =
  let m = Obs.Metrics.create () in
  checkb "unknown histogram" true (Obs.Metrics.histogram m "h" = None);
  checkb "unknown quantile" true (Obs.Metrics.quantile m "h" 0.5 = None);
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
      check_float "max" 2.5 h.Obs.Metrics.hmax;
      (* with one sample every quantile is that sample, not a bucket bound *)
      check_float "p50 clamps to the sample" 2.5 h.Obs.Metrics.p50;
      check_float "p99 clamps to the sample" 2.5 h.Obs.Metrics.p99

let hist_all_equal () =
  let m = Obs.Metrics.create () in
  for _ = 1 to 100 do
    Obs.Metrics.observe m "h" 0.125
  done;
  match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h ->
      checki "count" 100 h.Obs.Metrics.hcount;
      (* min = max forces exact quantiles whatever the bucket geometry *)
      check_float "p50 exact on a constant stream" 0.125 h.Obs.Metrics.p50;
      check_float "p90 exact on a constant stream" 0.125 h.Obs.Metrics.p90;
      check_float "p99 exact on a constant stream" 0.125 h.Obs.Metrics.p99

let hist_quantiles_ordered () =
  let m = Obs.Metrics.create () in
  for i = 1 to 1000 do
    Obs.Metrics.observe m "h" (float_of_int i)
  done;
  match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h ->
      checkb "p50 <= p90" true (h.Obs.Metrics.p50 <= h.Obs.Metrics.p90);
      checkb "p90 <= p99" true (h.Obs.Metrics.p90 <= h.Obs.Metrics.p99);
      checkb "quantiles inside [min, max]" true
        (h.Obs.Metrics.p50 >= 1.0 && h.Obs.Metrics.p99 <= 1000.0);
      (* half-step log2 buckets: the interpolated median of 1..1000 must
         land within one bucket ratio (sqrt 2) of the true 500.5 *)
      checkb "p50 within one bucket ratio of the truth" true
        (h.Obs.Metrics.p50 >= 500.5 /. sqrt 2.0 && h.Obs.Metrics.p50 <= 500.5 *. sqrt 2.0);
      (match Obs.Metrics.quantile m "h" 0.0 with
      | Some q -> check_float "q=0 clamps to min" 1.0 q
      | None -> Alcotest.fail "q=0 missing");
      (match Obs.Metrics.quantile m "h" 1.0 with
      | Some q -> check_float "q=1 clamps to max" 1000.0 q
      | None -> Alcotest.fail "q=1 missing")

let hist_extreme_values () =
  let m = Obs.Metrics.create () in
  (* below the first finite bound and above the last: both must keep exact
     min/max and count, and quantiles must stay clamped to them *)
  Obs.Metrics.observe m "h" 1e-9;
  Obs.Metrics.observe m "h" 1e13;
  match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h ->
      checki "count" 2 h.Obs.Metrics.hcount;
      check_float "min survives underflow bucket" 1e-9 h.Obs.Metrics.hmin;
      check_float "max survives overflow bucket" 1e13 h.Obs.Metrics.hmax;
      checkb "p99 clamped to observed max" true (h.Obs.Metrics.p99 <= 1e13)

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

let of_trace_folds () =
  let tr = Obs.Trace.create () in
  Obs.Trace.set_ctx tr (Some { Obs.Trace.node = 1; region = 0; freq = 1; cost_ms = 2.0 });
  Obs.Trace.record tr ~op:"mul_cc" ~level:8 ~scale_bits:56 ~size:3 ~noise:1e-9 ();
  Obs.Trace.record tr ~op:"mul_cc" ~level:8 ~scale_bits:56 ~size:3 ~noise:1e-9 ();
  Obs.Trace.set_ctx tr (Some { Obs.Trace.node = 2; region = 1; freq = 1; cost_ms = 1.0 });
  Obs.Trace.record tr ~op:"rotate" ~level:8 ~scale_bits:56 ~size:2 ~noise:1e-9 ();
  Obs.Trace.instant tr ~name:"rescale" ();
  let m = Obs.Metrics.of_trace tr in
  checki "per-op totals" 2
    (Obs.Metrics.counter_value m ~labels:[ ("op", "mul_cc") ] "trace_ops_total");
  checki "instants counted by kind" 1
    (Obs.Metrics.counter_value m ~labels:[ ("kind", "rescale") ] "trace_instants_total");
  (match Obs.Metrics.histogram m ~labels:[ ("op", "mul_cc") ] "op_latency_ms" with
  | Some h ->
      checki "latency observations per op" 2 h.Obs.Metrics.hcount;
      check_float "freq-weighted cost recorded" 4.0 h.Obs.Metrics.hsum
  | None -> Alcotest.fail "op_latency_ms{op=mul_cc} missing");
  (match Obs.Metrics.histogram m ~labels:[ ("region", "1") ] "region_latency_ms" with
  | Some h -> checki "region attribution" 1 h.Obs.Metrics.hcount
  | None -> Alcotest.fail "region_latency_ms{region=1} missing");
  checkb "clock gauge" true (Obs.Metrics.gauge m "trace_clock_ms" = Some 5.0)

(* --- ambient registry ------------------------------------------------------ *)

let ambient_install () =
  checkb "no ambient registry outside with_metrics" true (Obs.current_metrics () = None);
  (* conveniences are no-ops when nothing is installed *)
  Obs.metric_incr "x";
  let m = Obs.Metrics.create () in
  let v =
    Obs.with_metrics m (fun () ->
        Obs.metric_incr ~by:2 "x";
        Obs.metric_observe "y" 1.0;
        Obs.metric_set "z" 9.0;
        17)
  in
  checki "with_metrics returns the callback result" 17 v;
  checkb "restored on exit" true (Obs.current_metrics () = None);
  checki "incr landed" 2 (Obs.Metrics.counter_value m "x");
  checkb "observe landed" true (Obs.Metrics.histogram m "y" <> None);
  checkb "set landed" true (Obs.Metrics.gauge m "z" = Some 9.0)

let suite =
  [
    case "stat: median" stat_median;
    case "hist: empty and unknown series" hist_empty_and_unknown;
    case "hist: single sample" hist_single_sample;
    case "hist: all-equal stream is exact" hist_all_equal;
    case "hist: quantiles ordered and clamped" hist_quantiles_ordered;
    case "hist: under/overflow keep exact min/max" hist_extreme_values;
    case "labels canonicalised, gauges overwrite" labels_canonicalised;
    case "metrics JSON round-trips strict parser" metrics_json_roundtrip;
    case "of_trace folds ops, regions, instants" of_trace_folds;
    case "ambient registry install/restore" ambient_install;
  ]
