(* Runtime tracing: the flight-recorder ring buffer, evaluator/interp
   instrumentation, Chrome trace-event and JSONL exporters, the Figure 1a
   failure marker, and trace-vs-static noise cross-validation. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* --- Ring buffer ---------------------------------------------------------- *)

let record ?(op = "add_cc") ?(cost_ms = 1.0) ?(noise = 1e-10) tr =
  Obs.Trace.record tr ~op ~cost_ms ~level:8 ~scale_bits:56 ~size:2 ~noise ()

let ring_overflow () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for _ = 1 to 10 do
    record tr
  done;
  checki "recorded counts every event" 10 (Obs.Trace.recorded tr);
  checki "dropped = overwritten" 6 (Obs.Trace.dropped tr);
  let seqs = List.map (fun (e : Obs.Trace.op_event) -> e.Obs.Trace.seq) (Obs.Trace.op_events tr) in
  check (Alcotest.list Alcotest.int) "tail survives, chronological" [ 6; 7; 8; 9 ] seqs;
  check_float "clock includes evicted events" 10.0 (Obs.Trace.clock_ms tr)

let ring_under_capacity () =
  let tr = Obs.Trace.create ~capacity:8 () in
  record tr;
  Obs.Trace.instant tr ~name:"rescale" ();
  record tr;
  checki "three events" 3 (Obs.Trace.recorded tr);
  checki "nothing dropped" 0 (Obs.Trace.dropped tr);
  match Obs.Trace.events tr with
  | [ Obs.Trace.Op _; Obs.Trace.Instant i; Obs.Trace.Op b ] ->
      check Alcotest.string "instant name" "rescale" i.Obs.Trace.iname;
      check_float "instant at the clock of its moment" 1.0 i.Obs.Trace.its_ms;
      check_float "second op starts after the first" 1.0 b.Obs.Trace.start_ms
  | _ -> Alcotest.fail "expected op/instant/op"

let ctx_attribution () =
  let tr = Obs.Trace.create () in
  Obs.Trace.set_ctx tr (Some { Obs.Trace.node = 7; region = 3; freq = 4; cost_ms = 2.5 });
  record ~op:"rotate" ~cost_ms:99.0 tr;
  Obs.Trace.set_ctx tr None;
  record ~op:"rotate" tr;
  match Obs.Trace.op_events tr with
  | [ a; b ] ->
      checki "ctx node" 7 a.Obs.Trace.node;
      checki "ctx region" 3 a.Obs.Trace.region;
      checki "ctx freq" 4 a.Obs.Trace.freq;
      check_float "ctx cost overrides the evaluator estimate" 2.5 a.Obs.Trace.dur_ms;
      checki "without ctx: unattributed" (-1) b.Obs.Trace.node;
      check_float "without ctx: the evaluator estimate" 1.0 b.Obs.Trace.dur_ms;
      check_float "ops laid end to end on the simulated clock" 2.5 b.Obs.Trace.start_ms
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let headroom_clamp () =
  check_float "typical" 20.0 (Obs.Trace.headroom_bits (Float.pow 2.0 (-20.0)));
  check_float "noise above 1: no headroom left" 0.0 (Obs.Trace.headroom_bits 2.0);
  check_float "zero noise clamps at 200" 200.0 (Obs.Trace.headroom_bits 0.0)

(* --- Evaluator instrumentation -------------------------------------------- *)

let evaluator_records_ops () =
  let tr = Obs.Trace.create () in
  let ev = Ckks.Evaluator.create prm in
  Obs.with_trace tr (fun () ->
      let ct = Ckks.Evaluator.encrypt ev ~level:8 [| 0.5 |] in
      let m = Ckks.Evaluator.mul_cc ev ct ct in
      let r = Ckks.Evaluator.rescale ev (Ckks.Evaluator.relin ev m) in
      ignore (Ckks.Evaluator.rotate ev r 3));
  let ops = List.map (fun (e : Obs.Trace.op_event) -> e.Obs.Trace.op) (Obs.Trace.op_events tr) in
  check
    (Alcotest.list Alcotest.string)
    "one event per op, execution order"
    [ "encrypt"; "mul_cc"; "relin"; "rescale"; "rotate" ]
    ops;
  (* rescale additionally leaves a level-transition instant *)
  let instants =
    List.filter_map
      (function Obs.Trace.Instant i -> Some i.Obs.Trace.iname | Obs.Trace.Op _ -> None)
      (Obs.Trace.events tr)
  in
  check (Alcotest.list Alcotest.string) "rescale transition marker" [ "rescale" ] instants;
  List.iter
    (fun (e : Obs.Trace.op_event) ->
      checkb (e.Obs.Trace.op ^ " carries its noise") true (e.Obs.Trace.noise_after > 0.0))
    (Obs.Trace.op_events tr)

let evaluator_failure_leaves_instant () =
  let tr = Obs.Trace.create () in
  let ev = Ckks.Evaluator.create prm in
  let raised =
    Obs.with_trace tr (fun () ->
        let ct = Ckks.Evaluator.encrypt ev ~level:8 [| 0.5 |] in
        let low = Ckks.Evaluator.modswitch ev ct in
        match Ckks.Evaluator.add_cc ev ct low with
        | _ -> false
        | exception Ckks.Evaluator.Fhe_error _ -> true)
  in
  checkb "level mismatch raises" true raised;
  match List.rev (Obs.Trace.events tr) with
  | Obs.Trace.Instant i :: _ ->
      check Alcotest.string "final event is the failure marker" "fhe_error" i.Obs.Trace.iname;
      checkb "failure message preserved" true
        (List.mem_assoc "message" i.Obs.Trace.detail)
  | _ -> Alcotest.fail "expected a trailing fhe_error instant"

let trace_off_records_nothing () =
  let tr = Obs.Trace.create () in
  let ev = Ckks.Evaluator.create prm in
  (* No with_trace: the ambient lookup misses and the ops run untraced. *)
  let ct = Ckks.Evaluator.encrypt ev ~level:8 [| 0.5 |] in
  ignore (Ckks.Evaluator.rotate ev ct 1);
  checki "no ambient trace, no events" 0 (Obs.Trace.recorded tr)

(* --- Interp instrumentation ------------------------------------------------ *)

let small_program () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc g x x in
  let r = Dfg.rescale g m in
  let s = Dfg.add_cc g r r in
  Dfg.set_outputs g [ s ];
  g

let interp_event_ordering () =
  let g = small_program () in
  let tr = Obs.Trace.create () in
  let ev = Ckks.Evaluator.create prm in
  let env = { Interp.inputs = [ ("x", input_env ~dim:4 3L) ]; consts = const_env ~dim:4 } in
  let result = Interp.run ~trace:tr ev g env in
  let evs = Obs.Trace.op_events tr in
  check
    (Alcotest.list Alcotest.string)
    "events follow topological execution"
    [ "encrypt"; "mul_cc"; "relin"; "rescale"; "add_cc" ]
    (List.map (fun (e : Obs.Trace.op_event) -> e.Obs.Trace.op) evs);
  List.iter
    (fun (e : Obs.Trace.op_event) -> checkb "every event attributed" true (e.Obs.Trace.node >= 0))
    evs;
  check_float ~eps:1e-6 "simulated clock ends at the interp latency" result.Interp.latency_ms
    (Obs.Trace.clock_ms tr);
  let cost_sum =
    List.fold_left (fun acc c -> acc +. c.Interp.cost_ms) 0.0 result.Interp.node_costs
  in
  check_float ~eps:1e-6 "node_costs sum to the latency" result.Interp.latency_ms cost_sum

let interp_freq_weighting () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g ~freq:3 x 1 in
  Dfg.set_outputs g [ r ];
  let tr = Obs.Trace.create () in
  let ev = Ckks.Evaluator.create prm in
  let env = { Interp.inputs = [ ("x", input_env ~dim:4 3L) ]; consts = const_env ~dim:4 } in
  let result = Interp.run ~trace:tr ev g env in
  checki "rolled loop counted freq times" 3 result.Interp.op_count;
  let rotate_cost = Ckks.Cost_model.cost Ckks.Cost_model.Rotate ~level:prm.Ckks.Params.input_level in
  match List.rev (Obs.Trace.op_events tr) with
  | e :: _ ->
      checki "freq recorded on the event" 3 e.Obs.Trace.freq;
      check_float ~eps:1e-6 "duration is freq x Table 2 cost" (3.0 *. rotate_cost)
        e.Obs.Trace.dur_ms;
      check_float ~eps:1e-6 "latency matches" result.Interp.latency_ms (Obs.Trace.clock_ms tr)
  | [] -> Alcotest.fail "expected events"

let interp_trace_off_identical () =
  let g = small_program () in
  let env = { Interp.inputs = [ ("x", input_env ~dim:4 3L) ]; consts = const_env ~dim:4 } in
  let run ?trace () = Interp.run ?trace (Ckks.Evaluator.create prm) g env in
  let plain = run () in
  let tr = Obs.Trace.create () in
  let traced = run ~trace:tr () in
  checkb "tracing recorded events" true (Obs.Trace.recorded tr > 0);
  check_float "same latency" plain.Interp.latency_ms traced.Interp.latency_ms;
  checki "same op count" plain.Interp.op_count traced.Interp.op_count;
  List.iter2
    (fun (a : Ckks.Ciphertext.t) (b : Ckks.Ciphertext.t) ->
      check_float "same output noise (PRNG untouched by tracing)" a.Ckks.Ciphertext.err
        b.Ckks.Ciphertext.err;
      Array.iteri
        (fun i v -> check_float "same output slots" v (Ckks.Ciphertext.get b i))
        (Ckks.Ciphertext.to_array a))
    plain.Interp.outputs traced.Interp.outputs

let interp_illegal_leaves_instant () =
  (* The unmanaged Figure 1 block under the Figure 1 parameters: rejected
     statically, and the flight recorder must end with the failure marker
     naming the faulting node. *)
  let g = fig1_block () in
  let p = Ckks.Params.fig1 in
  let tr = Obs.Trace.create () in
  let ev = Ckks.Evaluator.create p in
  let env = { Interp.inputs = [ ("x", input_env ~dim:4 3L) ]; consts = const_env ~dim:4 } in
  let raised =
    match Interp.run ~trace:tr ev g env with
    | _ -> false
    | exception Ckks.Evaluator.Fhe_error _ -> true
  in
  checkb "Figure 1a program rejected" true raised;
  match List.rev (Obs.Trace.events tr) with
  | Obs.Trace.Instant i :: _ ->
      check Alcotest.string "final event" "fhe_error" i.Obs.Trace.iname;
      checkb "names the faulting node" true (i.Obs.Trace.inode >= 0)
  | _ -> Alcotest.fail "expected a trailing fhe_error instant"

let interp_noise_summary () =
  let g = small_program () in
  let env = { Interp.inputs = [ ("x", input_env ~dim:4 3L) ]; consts = const_env ~dim:4 } in
  let result = Interp.run (Ckks.Evaluator.create prm) g env in
  let n = Lazy.force result.Interp.noise in
  checkb "finite min headroom" true (Float.is_finite n.Interp.min_headroom_bits);
  checkb "min node identified" true (n.Interp.min_headroom_node >= 0);
  checkb "headroom positive for a healthy run" true (n.Interp.min_headroom_bits > 0.0);
  check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 0.0)))
    "no bootstraps in the unmanaged program" [] n.Interp.bootstrap_headroom;
  (match n.Interp.noisiest with
  | (node, bits) :: _ ->
      checki "noisiest list leads with the minimum" n.Interp.min_headroom_node node;
      check_float "and its headroom" n.Interp.min_headroom_bits bits
  | [] -> Alcotest.fail "expected noisiest nodes");
  checkb "noisiest ascending" true
    (let rec sorted = function
       | (_, a) :: ((_, b) :: _ as rest) -> a <= b && sorted rest
       | _ -> true
     in
     sorted n.Interp.noisiest)

(* --- Managed run: bootstraps, regions, cross-validation -------------------- *)

let managed_run () =
  let g = fig1_block () in
  let p = Ckks.Params.fig1 in
  let managed, report = Resbm.Driver.compile p g in
  let tr = Obs.Trace.create () in
  let region_of id =
    let attr = report.Resbm.Report.region_of in
    if id >= 0 && id < Array.length attr then attr.(id) else -1
  in
  let env = { Interp.inputs = [ ("x", input_env ~dim:4 3L) ]; consts = const_env ~dim:4 } in
  let result = Interp.run ~trace:tr ~region_of (Ckks.Evaluator.create p) managed env in
  (tr, report, result)

let managed_regions_attributed () =
  let tr, report, result = managed_run () in
  List.iter
    (fun (c : Interp.node_cost) ->
      checkb "every charged node has a region" true
        (c.Interp.region >= 0 && c.Interp.region < report.Resbm.Report.region_count))
    result.Interp.node_costs;
  (* per-region attribution decomposes the total latency *)
  let by_region = Hashtbl.create 8 in
  List.iter
    (fun (c : Interp.node_cost) ->
      Hashtbl.replace by_region c.Interp.region
        (c.Interp.cost_ms
        +. Option.value (Hashtbl.find_opt by_region c.Interp.region) ~default:0.0))
    result.Interp.node_costs;
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) by_region 0.0 in
  check_float ~eps:1e-6 "region latencies sum to the total" result.Interp.latency_ms total;
  List.iter
    (fun (e : Obs.Trace.op_event) ->
      if e.Obs.Trace.node >= 0 then
        checkb "trace events carry the same attribution" true (e.Obs.Trace.region >= 0))
    (Obs.Trace.op_events tr)

let managed_bootstrap_headroom () =
  let _, report, result = managed_run () in
  checki "one headroom sample per executed bootstrap"
    report.Resbm.Report.stats.Stats.bootstrap_count
    (List.length (Lazy.force result.Interp.noise).Interp.bootstrap_headroom);
  List.iter
    (fun (node, bits) ->
      checkb "bootstrap node id valid" true (node >= 0);
      checkb "operand still had budget" true (bits > 0.0))
    (Lazy.force result.Interp.noise).Interp.bootstrap_headroom

let trace_cross_validation () =
  let g = fig1_block () in
  let p = Ckks.Params.fig1 in
  let managed, _ = Resbm.Driver.compile p g in
  let tr = Obs.Trace.create () in
  let env = { Interp.inputs = [ ("x", input_env ~dim:4 3L) ]; consts = const_env ~dim:4 } in
  ignore (Interp.run ~trace:tr (Ckks.Evaluator.create p) managed env);
  let static =
    Noise_check.analyse
      ~const_magnitude:(Nn.Lowering.const_magnitude (const_env ~dim:4))
      p managed
  in
  let evs = Obs.Trace.op_events tr in
  check (Alcotest.list Alcotest.string) "traced noise within the static envelope" []
    (List.map
       (fun (m : Noise_check.trace_mismatch) -> m.Noise_check.op)
       (Noise_check.check_trace static evs));
  checkb "an absurd tolerance flags the same events" true
    (Noise_check.check_trace ~tolerance_bits:(-50.0) static evs <> [])

(* --- Exporters -------------------------------------------------------------- *)

let json_field name = function
  | Obs.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let chrome_round_trip () =
  let tr, report, _ = managed_run () in
  let json =
    Obs.chrome_trace
      (Obs.profile_chrome_events report.Resbm.Report.profile
      @ Obs.Trace.chrome_events tr)
  in
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok parsed -> (
      (match json_field "displayTimeUnit" parsed with
      | Some (Obs.Json.String "ms") -> ()
      | _ -> Alcotest.fail "displayTimeUnit ms expected");
      match json_field "traceEvents" parsed with
      | Some (Obs.Json.List events) ->
          let phase e =
            match json_field "ph" e with Some (Obs.Json.String s) -> s | _ -> "?"
          in
          let named e =
            match json_field "name" e with Some (Obs.Json.String s) -> s | _ -> "?"
          in
          let counters =
            List.sort_uniq compare
              (List.filter_map
                 (fun e -> if phase e = "C" then Some (named e) else None)
                 events)
          in
          check
            (Alcotest.list Alcotest.string)
            "noise, level and scale counter tracks"
            [ "level"; "noise_headroom_bits"; "scale_bits" ]
            counters;
          checkb "duration events present" true (List.exists (fun e -> phase e = "X") events);
          checkb "bootstrap instants present" true
            (List.exists (fun e -> phase e = "i" && named e = "bootstrap") events);
          let pids =
            List.sort_uniq compare
              (List.filter_map
                 (fun e ->
                   match json_field "pid" e with Some (Obs.Json.Int p) -> Some p | _ -> None)
                 events)
          in
          check (Alcotest.list Alcotest.int) "compile and execution processes" [ 0; 1 ] pids
      | _ -> Alcotest.fail "traceEvents list expected")

let jsonl_round_trip () =
  let tr, _, _ = managed_run () in
  let lines = Obs.Trace.to_jsonl tr in
  checki "one line per surviving event" (Obs.Trace.recorded tr) (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "unparsable JSONL line: %s" e
      | Ok parsed -> (
          match json_field "type" parsed with
          | Some (Obs.Json.String ("op" | "instant")) -> ()
          | _ -> Alcotest.fail "typed JSONL record expected"))
    lines

let suite =
  [
    case "ring buffer: overflow keeps the tail" ring_overflow;
    case "ring buffer: under capacity" ring_under_capacity;
    case "ctx overrides attribution and cost" ctx_attribution;
    case "headroom bits clamped" headroom_clamp;
    case "evaluator records one event per op" evaluator_records_ops;
    case "evaluator failure leaves fhe_error instant" evaluator_failure_leaves_instant;
    case "no ambient trace, no events" trace_off_records_nothing;
    case "interp: event ordering and attribution" interp_event_ordering;
    case "interp: freq-weighted rolled loops" interp_freq_weighting;
    case "interp: tracing changes no results" interp_trace_off_identical;
    case "interp: Figure 1a failure marker" interp_illegal_leaves_instant;
    case "interp: noise summary" interp_noise_summary;
    case "managed run: region attribution" managed_regions_attributed;
    case "managed run: bootstrap headroom" managed_bootstrap_headroom;
    case "trace vs static noise cross-validation" trace_cross_validation;
    case "Chrome trace export round-trips" chrome_round_trip;
    case "JSONL export round-trips" jsonl_round_trip;
  ]
