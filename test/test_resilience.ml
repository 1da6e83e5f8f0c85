(* Fault injection, recovery-aware execution, graceful planner degradation. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default
let dim = 4

let mk ?(slots = Array.make dim 0.5) ?(scale = 56) ?(level = 2) ?(size = 2) () =
  Ckks.Ciphertext.make ~slots ~scale_bits:scale ~level ~size ~err:1e-12

let expect_error ~cause ~op f =
  Obs.set_node ~region:(-1) (-1);
  match f () with
  | _ -> Alcotest.failf "expected Fhe_error %s" (Ckks.Evaluator.cause_name cause)
  | exception Ckks.Evaluator.Fhe_error e ->
      check Alcotest.string "cause" (Ckks.Evaluator.cause_name cause)
        (Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause);
      check Alcotest.string "op" op e.Ckks.Evaluator.op;
      checkb "carries a message" true
        (String.length (Ckks.Evaluator.error_message e) > 0);
      checki "unattributed outside the interpreter" (-1) e.Ckks.Evaluator.node;
      e

(* --- structured errors: one fixture per Table 1 constraint path --------- *)

let constraint_fixtures () =
  let ev = Ckks.Evaluator.create ~seed:11L prm in
  let data = Array.make dim 0.25 in
  ignore
    (expect_error ~cause:Ckks.Evaluator.Negative_level ~op:"encrypt" (fun () ->
         Ckks.Evaluator.encrypt ev ~level:(-1) data));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Scale_overflow ~op:"encrypt" (fun () ->
         Ckks.Evaluator.encrypt ev ~level:0 ~scale_bits:120 data));
  let e =
    expect_error ~cause:Ckks.Evaluator.Level_mismatch ~op:"add_cc" (fun () ->
        Ckks.Evaluator.add_cc ev (mk ~level:2 ()) (mk ~level:1 ()))
  in
  checki "level at the raise site" 2 e.Ckks.Evaluator.level;
  checki "scale at the raise site" 56 e.Ckks.Evaluator.scale_bits;
  checkb "constraint errors are not retryable" false (Ckks.Evaluator.transient e);
  ignore
    (expect_error ~cause:Ckks.Evaluator.Scale_mismatch ~op:"add_cc" (fun () ->
         Ckks.Evaluator.add_cc ev (mk ~scale:56 ()) (mk ~scale:58 ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Scale_mismatch ~op:"add_cp" (fun () ->
         Ckks.Evaluator.add_cp ev (mk ~scale:56 ())
           (Ckks.Evaluator.encode ev ~scale_bits:58 data)));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Slot_mismatch ~op:"add_cc" (fun () ->
         Ckks.Evaluator.add_cc ev (mk ()) (mk ~slots:(Array.make (2 * dim) 0.5) ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Level_mismatch ~op:"mul_cc" (fun () ->
         Ckks.Evaluator.mul_cc ev (mk ~level:3 ()) (mk ~level:2 ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Scale_overflow ~op:"mul_cc" (fun () ->
         Ckks.Evaluator.mul_cc ev (mk ~scale:60 ~level:1 ()) (mk ~scale:60 ~level:1 ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Slot_mismatch ~op:"rotate" (fun () ->
         Ckks.Evaluator.rotate ev (mk ~slots:[||] ()) 1));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Size_mismatch ~op:"relin" (fun () ->
         Ckks.Evaluator.relin ev (mk ~size:2 ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Level_underflow ~op:"rescale" (fun () ->
         Ckks.Evaluator.rescale ev (mk ~level:0 ~scale:56 ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Scale_underflow ~op:"rescale" (fun () ->
         Ckks.Evaluator.rescale ev (mk ~level:2 ~scale:100 ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Level_underflow ~op:"modswitch" (fun () ->
         Ckks.Evaluator.modswitch ev (mk ~level:0 ())));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Target_out_of_range ~op:"bootstrap" (fun () ->
         Ckks.Evaluator.bootstrap ev (mk ()) ~target_level:(prm.Ckks.Params.l_max + 1)));
  ignore
    (expect_error ~cause:Ckks.Evaluator.Size_mismatch ~op:"decrypt" (fun () ->
         Ckks.Evaluator.decrypt ev (mk ~size:3 ())))

(* --- every raise path counts fhe_errors_total exactly once -------------- *)

let evaluator_errors_counted_once () =
  let ev = Ckks.Evaluator.create ~seed:12L prm in
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      match Ckks.Evaluator.add_cc ev (mk ~level:2 ()) (mk ~level:1 ()) with
      | _ -> Alcotest.fail "expected Fhe_error"
      | exception Ckks.Evaluator.Fhe_error _ -> ());
  checki "one count, labelled by cause" 1
    (Obs.Metrics.counter_value ~labels:[ ("cause", "level_mismatch") ] m
       "fhe_errors_total")

let interp_illegal_graph_counted_once () =
  (* fig3 unmanaged: statically illegal (scale mismatch at the final add),
     so the interpreter raises the structured Illegal_graph error through
     the same counted funnel. *)
  let g = fig3_poly () in
  let m = Obs.Metrics.create () in
  let env = { Interp.inputs = [ ("x", input_env ~dim 3L) ]; consts = const_env ~dim } in
  Obs.with_metrics m (fun () ->
      match Interp.run (Ckks.Evaluator.create prm) g env with
      | _ -> Alcotest.fail "expected Fhe_error"
      | exception Ckks.Evaluator.Fhe_error e ->
          check Alcotest.string "cause" "illegal_graph"
            (Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause);
          checkb "names the faulting node" true (e.Ckks.Evaluator.node >= 0));
  checki "one count through the interpreter" 1
    (Obs.Metrics.counter_value ~labels:[ ("cause", "illegal_graph") ] m
       "fhe_errors_total")

let injected_transient_counted_once () =
  let p = Ckks.Params.fig1 in
  let managed, _ = Resbm.Driver.compile p (fig1_block ()) in
  let d = 8 in
  let env = { Interp.inputs = [ ("x", input_env ~dim:d 5L) ]; consts = const_env ~dim:d } in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 42L;
        rules = [ Ckks.Fault.rule Ckks.Fault.Transient ~prob:1.0 ~mag:0.0 ];
        budget = 1;
      }
  in
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      Ckks.Fault.with_faults inj (fun () ->
          match Interp.run (Ckks.Evaluator.create p) managed env with
          | _ -> Alcotest.fail "expected the injected transient to escape"
          | exception Ckks.Evaluator.Fhe_error e ->
              checkb "retryable" true (Ckks.Evaluator.transient e);
              checkb "attributed to a node" true (e.Ckks.Evaluator.node >= 0)));
  checki "error counted once" 1
    (Obs.Metrics.counter_value ~labels:[ ("cause", "injected_transient") ] m
       "fhe_errors_total");
  (match Ckks.Fault.injections inj with
  | [ i ] ->
      checki "injection counted once, labelled by kind and op" 1
        (Obs.Metrics.counter_value
           ~labels:[ ("kind", "transient"); ("op", i.Ckks.Fault.inj_op) ]
           m "fhe_faults_total")
  | l -> Alcotest.failf "expected one injection, got %d" (List.length l))

(* --- injector: determinism, budget, targeting, tracing ------------------ *)

let injector_is_deterministic () =
  let p = Ckks.Params.fig1 in
  let managed, report = Resbm.Driver.compile p (fig1_block ()) in
  let d = 8 in
  let env = { Interp.inputs = [ ("x", input_env ~dim:d 5L) ]; consts = const_env ~dim:d } in
  let region_of id =
    let attr = report.Resbm.Report.region_of in
    if id < Array.length attr then attr.(id) else -1
  in
  let plan =
    {
      Ckks.Fault.seed = 7L;
      rules =
        [
          Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:0.05 ~mag:25.0;
          Ckks.Fault.rule Ckks.Fault.Transient ~prob:0.02 ~mag:0.0;
        ];
      budget = 4;
    }
  in
  let campaign () =
    let inj = Ckks.Fault.create plan in
    let ev = Ckks.Evaluator.create ~seed:9L p in
    let result, _ =
      Ckks.Fault.with_faults inj (fun () ->
          Resilience.Recovery.run ~region_of ev managed env)
    in
    ( List.map
        (fun (i : Ckks.Fault.injection) ->
          (i.Ckks.Fault.index, i.Ckks.Fault.inj_op, i.Ckks.Fault.inj_node,
           Ckks.Fault.kind_name i.Ckks.Fault.inj_kind))
        (Ckks.Fault.injections inj),
      List.map (fun (c : Ckks.Ciphertext.t) -> c.Ckks.Ciphertext.slots) result.Interp.outputs )
  in
  let log1, out1 = campaign () in
  let log2, out2 = campaign () in
  checkb "identical injection logs" true (log1 = log2);
  checkb "identical outputs" true (out1 = out2);
  checkb "budget respected" true (List.length log1 <= 4)

let budget_caps_injections () =
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 1L;
        rules = [ Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:1.0 ~mag:10.0 ];
        budget = 2;
      }
  in
  Ckks.Fault.with_faults inj (fun () ->
      let f = Option.get (Ckks.Fault.current ()) in
      checkb "fires" true (Ckks.Fault.draw f ~op:"mul_cc" <> None);
      checkb "fires" true (Ckks.Fault.draw f ~op:"mul_cc" <> None);
      checkb "budget exhausted" true (Ckks.Fault.draw f ~op:"mul_cc" = None));
  checki "two injections" 2 (Ckks.Fault.injected inj)

let rules_filter_by_op_and_node () =
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 1L;
        rules =
          [
            Ckks.Fault.rule ~ops:[ "mul_cc" ] ~nodes:[ 7 ] Ckks.Fault.Scale_drift
              ~prob:1.0 ~mag:3.0;
          ];
        budget = -1;
      }
  in
  Ckks.Fault.with_faults inj (fun () ->
      let f = Option.get (Ckks.Fault.current ()) in
      Obs.set_node ~region:(-1) 3;
      checkb "wrong node" true (Ckks.Fault.draw f ~op:"mul_cc" = None);
      Obs.set_node ~region:(-1) 7;
      checkb "wrong op" true (Ckks.Fault.draw f ~op:"add_cc" = None);
      checkb "matching op and node fires" true (Ckks.Fault.draw f ~op:"mul_cc" <> None);
      Obs.set_node ~region:(-1) (-1));
  match Ckks.Fault.injections inj with
  | [ i ] ->
      checki "attributed node" 7 i.Ckks.Fault.inj_node;
      check Alcotest.string "kind" "scale_drift" (Ckks.Fault.kind_name i.Ckks.Fault.inj_kind)
  | l -> Alcotest.failf "expected one injection, got %d" (List.length l)

let injection_leaves_trace_instant () =
  let p = Ckks.Params.fig1 in
  let managed, _ = Resbm.Driver.compile p (fig1_block ()) in
  let d = 8 in
  let env = { Interp.inputs = [ ("x", input_env ~dim:d 5L) ]; consts = const_env ~dim:d } in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 2L;
        rules = [ Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:1.0 ~mag:8.0 ];
        budget = 1;
      }
  in
  let tr = Obs.Trace.create () in
  ignore
    (Ckks.Fault.with_faults inj (fun () ->
         Interp.run ~trace:tr (Ckks.Evaluator.create p) managed env));
  let faults =
    List.filter_map
      (function
        | Obs.Trace.Instant i when i.Obs.Trace.iname = "fault" -> Some i | _ -> None)
      (Obs.Trace.events tr)
  in
  checki "one fault instant" 1 (List.length faults);
  let detail = (List.hd faults).Obs.Trace.detail in
  check Alcotest.string "kind in detail" "noise_spike"
    (match List.assoc_opt "kind" detail with
    | Some (Obs.Json.String s) -> s
    | _ -> "?")

(* --- recovery ------------------------------------------------------------ *)

let fig1_compiled () =
  let p = Ckks.Params.fig1 in
  let managed, report = Resbm.Driver.compile p (fig1_block ()) in
  let d = 8 in
  let env = { Interp.inputs = [ ("x", input_env ~dim:d 5L) ]; consts = const_env ~dim:d } in
  let region_of id =
    let attr = report.Resbm.Report.region_of in
    if id < Array.length attr then attr.(id) else -1
  in
  (p, managed, env, region_of)

let max_delta (a : Ckks.Ciphertext.t list) (b : Ckks.Ciphertext.t list) =
  List.fold_left2
    (fun acc (x : Ckks.Ciphertext.t) (y : Ckks.Ciphertext.t) ->
      Array.fold_left Float.max acc
        (Array.mapi
           (fun i v -> Float.abs (v -. y.Ckks.Ciphertext.slots.(i)))
           x.Ckks.Ciphertext.slots))
    0.0 a b

let recovery_survives_transient () =
  let p, managed, env, region_of = fig1_compiled () in
  let reference = Interp.run (Ckks.Evaluator.create ~seed:9L p) managed env in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 42L;
        rules = [ Ckks.Fault.rule Ckks.Fault.Transient ~prob:1.0 ~mag:0.0 ];
        budget = 1;
      }
  in
  let result, stats =
    Ckks.Fault.with_faults inj (fun () ->
        Resilience.Recovery.run ~region_of (Ckks.Evaluator.create ~seed:9L p) managed env)
  in
  checki "one injection" 1 stats.Resilience.Recovery.injected_faults;
  checkb "retried" true (stats.Resilience.Recovery.retries >= 1);
  checkb "backoff charged" true (stats.Resilience.Recovery.backoff_ms_total > 0.0);
  checkb "recovery latency attributed to transient" true
    (List.mem_assoc "transient" stats.Resilience.Recovery.recovery_ms_by_kind);
  checkb "output within noise of the reference" true
    (max_delta reference.Interp.outputs result.Interp.outputs < 1e-4)

let recovery_survives_noise_spike () =
  let p, managed, env, region_of = fig1_compiled () in
  let reference = Interp.run (Ckks.Evaluator.create ~seed:9L p) managed env in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 4L;
        rules = [ Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:1.0 ~mag:25.0 ];
        budget = 1;
      }
  in
  let result, stats =
    Ckks.Fault.with_faults inj (fun () ->
        Resilience.Recovery.run ~region_of (Ckks.Evaluator.create ~seed:9L p) managed env)
  in
  checkb "retried" true (stats.Resilience.Recovery.retries >= 1);
  checkb "output within noise of the reference" true
    (max_delta reference.Interp.outputs result.Interp.outputs < 1e-4)

let backoff_is_capped_and_counted () =
  let p, managed, env, region_of = fig1_compiled () in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 42L;
        rules = [ Ckks.Fault.rule Ckks.Fault.Transient ~prob:1.0 ~mag:0.0 ];
        budget = 3;
      }
  in
  let config =
    {
      Resilience.Recovery.default with
      Resilience.Recovery.max_attempts = 4;
      backoff_ms = 10.0;
      max_backoff_ms = 15.0;
    }
  in
  let m = Obs.Metrics.create () in
  let _, stats =
    Obs.with_metrics m (fun () ->
        Ckks.Fault.with_faults inj (fun () ->
            Resilience.Recovery.run ~config ~region_of
              (Ckks.Evaluator.create ~seed:9L p) managed env))
  in
  checkb "enough rollbacks to hit the cap" true (stats.Resilience.Recovery.retries >= 2);
  checkb "capped backoffs counted" true (stats.Resilience.Recovery.capped_backoffs >= 1);
  checkb "total backoff respects the cap" true
    (stats.Resilience.Recovery.backoff_ms_total
    <= 15.0 *. float_of_int stats.Resilience.Recovery.retries);
  checki "cap hits exported as a metric" stats.Resilience.Recovery.capped_backoffs
    (Obs.Metrics.counter_value m "recovery_backoff_capped_total")

let panic_refresh_when_retries_disabled () =
  let p, managed, env, region_of = fig1_compiled () in
  let reference = Interp.run (Ckks.Evaluator.create ~seed:9L p) managed env in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 4L;
        rules = [ Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:1.0 ~mag:25.0 ];
        budget = 1;
      }
  in
  let config = { Resilience.Recovery.default with Resilience.Recovery.max_attempts = 0 } in
  let result, stats =
    Ckks.Fault.with_faults inj (fun () ->
        Resilience.Recovery.run ~config ~region_of (Ckks.Evaluator.create ~seed:9L p)
          managed env)
  in
  checkb "re-bootstrapped in place" true (stats.Resilience.Recovery.panic_refreshes >= 1);
  checki "no retries" 0 stats.Resilience.Recovery.retries;
  (* A refresh resets the noise estimate but cannot undo the spike's slot
     jitter (~2^-5 here), so this degraded-but-alive path is only
     approximately repaired — unlike the rollback path above. *)
  checkb "output bounded by the spike jitter" true
    (max_delta reference.Interp.outputs result.Interp.outputs < 0.05)

let recovery_checkpoints_respect_budget () =
  let p, managed, env, region_of = fig1_compiled () in
  let config =
    {
      Resilience.Recovery.default with
      Resilience.Recovery.checkpoint_budget_bytes = Some 1.0;
    }
  in
  let _, stats =
    Resilience.Recovery.run ~config ~region_of (Ckks.Evaluator.create ~seed:9L p) managed
      env
  in
  checkb "boundary checkpoints taken" true (stats.Resilience.Recovery.checkpoints >= 2);
  checkb "evicted down to the budget" true (stats.Resilience.Recovery.evictions >= 1);
  checkb "peak accounted" true (stats.Resilience.Recovery.checkpoint_bytes_peak > 0.0)

(* A slot flipped ~2^-38 below the noise floor is invisible to every
   magnitude-based validator (level/scale match, the err bump is
   negligible against the 12-bit slack), so only the boundary slot
   checksum can see it.  Before checksums the run "succeeded" with a
   silently wrong output; now it must roll back and replay exactly. *)
let recovery_detects_subfloor_corruption () =
  let p, managed, env, region_of = fig1_compiled () in
  let reference = Interp.run (Ckks.Evaluator.create ~seed:9L p) managed env in
  let out = List.hd (Dfg.outputs managed) in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 6L;
        rules =
          [
            Ckks.Fault.rule ~nodes:[ out ] Ckks.Fault.Slot_corrupt ~prob:1.0
              ~mag:(-38.0);
          ];
        budget = 1;
      }
  in
  let result, stats =
    Ckks.Fault.with_faults inj (fun () ->
        Resilience.Recovery.run ~region_of (Ckks.Evaluator.create ~seed:9L p) managed env)
  in
  checki "one injection" 1 stats.Resilience.Recovery.injected_faults;
  checkb "checksum caught the sub-floor flip" true
    (stats.Resilience.Recovery.retries >= 1);
  checkb "recovery latency attributed to slot_corrupt" true
    (List.mem_assoc "slot_corrupt" stats.Resilience.Recovery.recovery_ms_by_kind);
  check_float "clean replay is bit-exact" 0.0
    (max_delta reference.Interp.outputs result.Interp.outputs)

(* Value-based checkpoint eviction: a chain with an expensive
   multiplicative prefix followed by a tail of cheap one-rotation regions.
   Under budget pressure the supervisor must keep the checkpoint guarding
   the expensive prefix (its marginal re-execution value is the whole
   prefix) and churn through the cheap tail guards; oldest-first eviction
   would drop the expensive guard almost immediately. *)
let recovery_eviction_keeps_expensive_guard () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let v = ref x in
  for _ = 1 to 5 do
    v := Dfg.mul_cc g !v !v
  done;
  let first_rot = Dfg.rotate g !v 1 in
  v := first_rot;
  for _ = 1 to 7 do
    v := Dfg.rotate g !v 1
  done;
  Dfg.set_outputs g [ !v ];
  let managed, _ = Resbm.Driver.compile prm g in
  (* Execution-order positions: everything before the first rotation is
     the expensive prefix (region 0), then every tail position is its own
     single-node region, so each tail node gets a boundary checkpoint. *)
  let session = Interp.Session.create (Ckks.Evaluator.create ~seed:9L prm) managed in
  let order = Interp.Session.order session in
  let pos_of = Array.make (Dfg.node_count managed) (-1) in
  Array.iteri (fun i id -> pos_of.(id) <- i) order;
  let split = pos_of.(first_rot) in
  checkb "prefix precedes the tail in execution order" true (split > 0);
  let region_of id =
    if id < 0 || id >= Array.length pos_of || pos_of.(id) < 0 then -1
    else if pos_of.(id) < split then 0
    else pos_of.(id) - split + 1
  in
  let env = { Interp.inputs = [ ("x", input_env ~dim 7L) ]; consts = const_env ~dim } in
  (* Size one snapshot from an unconstrained run, then allow ~2.5 of them. *)
  let unconstrained =
    {
      Resilience.Recovery.default with
      Resilience.Recovery.checkpoint_budget_bytes = Some Float.infinity;
    }
  in
  let _, s0 =
    Resilience.Recovery.run ~config:unconstrained ~region_of
      (Ckks.Evaluator.create ~seed:9L prm)
      managed env
  in
  checki "unconstrained run never evicts" 0 s0.Resilience.Recovery.evictions;
  checkb "tail produced several checkpoints" true
    (s0.Resilience.Recovery.checkpoints >= 5);
  let per =
    s0.Resilience.Recovery.checkpoint_bytes_peak
    /. float_of_int s0.Resilience.Recovery.checkpoints
  in
  let tight =
    {
      Resilience.Recovery.default with
      Resilience.Recovery.checkpoint_budget_bytes = Some (2.5 *. per);
    }
  in
  let _, s =
    Resilience.Recovery.run ~config:tight ~region_of
      (Ckks.Evaluator.create ~seed:9L prm)
      managed env
  in
  checkb "budget pressure forced evictions" true (s.Resilience.Recovery.evictions >= 3);
  checkb "kept the expensive-prefix guard" true
    (List.mem split s.Resilience.Recovery.held_checkpoints);
  checkb "churned a cheap tail guard instead" true
    (not (List.mem (split + 1) s.Resilience.Recovery.held_checkpoints))

let recovery_faultoff_identity =
  qcheck ~count:20 "fault-off recovery is bit-identical to Interp.run"
    (random_dfg_gen ~max_nodes:30 ~max_depth:8)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | exception Resbm.Btsmgr.No_plan _ -> true
      | managed, report ->
          let input = input_env ~dim 29L in
          let env = { Interp.inputs = [ ("x", input) ]; consts = const_env ~dim } in
          let region_of id =
            let attr = report.Resbm.Report.region_of in
            if id < Array.length attr then attr.(id) else -1
          in
          let r1 = Interp.run (Ckks.Evaluator.create ~seed:77L prm) managed env in
          let r2, stats =
            Resilience.Recovery.run ~region_of
              (Ckks.Evaluator.create ~seed:77L prm)
              managed env
          in
          stats.Resilience.Recovery.retries = 0
          && stats.Resilience.Recovery.panic_refreshes = 0
          && r1.Interp.latency_ms = r2.Interp.latency_ms
          && r1.Interp.op_count = r2.Interp.op_count
          && List.for_all2
               (fun (a : Ckks.Ciphertext.t) (b : Ckks.Ciphertext.t) ->
                 a.Ckks.Ciphertext.slots = b.Ckks.Ciphertext.slots
                 && a.Ckks.Ciphertext.err = b.Ckks.Ciphertext.err
                 && a.Ckks.Ciphertext.level = b.Ckks.Ciphertext.level
                 && a.Ckks.Ciphertext.scale_bits = b.Ckks.Ciphertext.scale_bits)
               r1.Interp.outputs r2.Interp.outputs)

(* --- live-only session: differential against the liveness definition ----- *)

(* Drive a session node by node and, at every region boundary (the
   positions {!Resilience.Recovery.run} validates and checkpoints at),
   hold [live_cts] against its definition: every executed ciphertext node
   that is an output or still has a use ahead ({!Liveness.live_at}),
   carrying the very value [exec] produced.  At each boundary a snapshot,
   a run on to the next boundary and a rollback must restore exactly that
   set, and the replayed span must then reach the next boundary again. *)
let live_set_matches_definition ~region_of ev managed env =
  let s = Interp.Session.create ev managed in
  let order = Interp.Session.order s in
  let sched = Interp.Session.schedule s in
  let n = Array.length order in
  let produced = Hashtbl.create 64 in
  let is_ct id = Op.produces_ct (Dfg.node managed id).Dfg.kind in
  let expected at =
    List.filter
      (fun id ->
        let p = sched.Liveness.order_index.(id) in
        p >= 0 && p < at && is_ct id && Liveness.live_at sched ~at id)
      (List.init (Dfg.node_count managed) Fun.id)
  in
  let same got want =
    List.length got = List.length want
    && List.for_all2
         (fun (i, c) j ->
           i = j
           && match Hashtbl.find_opt produced j with Some c' -> c == c' | None -> false)
         got want
  in
  let boundary i =
    i = n || i = 0 || region_of order.(i - 1) <> region_of order.(i)
  in
  let exec_to_boundary from =
    let i = ref from in
    let continue = ref true in
    while !continue do
      let id = order.(!i) in
      Interp.Session.exec s env id;
      incr i;
      (match List.assoc_opt id (Interp.Session.live_cts s) with
      | Some c -> Hashtbl.replace produced id c
      | None -> ());
      continue := not (boundary !i)
    done;
    !i
  in
  let ok = ref (same (Interp.Session.live_cts s) (expected 0)) in
  let pos = ref 0 in
  while !ok && !pos < n do
    let p = !pos in
    let snap = Interp.Session.snapshot s in
    let q = exec_to_boundary p in
    ok := !ok && same (Interp.Session.live_cts s) (expected q);
    (* The span just run wrote only nodes at [p, q), none of which is in
       [expected p]: the restored set must be the pre-snapshot values. *)
    let resume = Interp.Session.rollback s snap in
    ok := !ok && resume = p && same (Interp.Session.live_cts s) (expected p);
    let q' = exec_to_boundary p in
    ok := !ok && q' = q && same (Interp.Session.live_cts s) (expected q);
    pos := q
  done;
  !ok

let live_cts_matches_definition_resnet20 () =
  let l_max = 16 and dim = 16 in
  let prm16 =
    Ckks.Params.with_l_max { Ckks.Params.default with Ckks.Params.input_level = l_max } l_max
  in
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let managed, report = Resbm.Driver.compile_robust prm16 lowered.Nn.Lowering.dfg in
  let attr = report.Resbm.Report.region_of in
  let region_of id = if id >= 0 && id < Array.length attr then attr.(id) else -1 in
  let image = (Nn.Dataset.images ~seed:31L ~dim ~count:1 ()).(0) in
  let env =
    {
      Interp.inputs = [ (lowered.Nn.Lowering.input_name, image) ];
      consts = Nn.Lowering.resolver lowered ~dim;
    }
  in
  checkb "live_cts and snapshot round trips match the definition at every boundary" true
    (live_set_matches_definition ~region_of (Ckks.Evaluator.create ~seed:5L prm16) managed env)

let live_cts_matches_definition_random =
  qcheck ~count:30 "live_cts matches Liveness.live_at at every boundary"
    (random_dfg_gen ~max_nodes:30 ~max_depth:8)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | exception Resbm.Btsmgr.No_plan _ -> true
      | managed, report ->
          let env = { Interp.inputs = [ ("x", input_env ~dim 13L) ]; consts = const_env ~dim } in
          let attr = report.Resbm.Report.region_of in
          let region_of id = if id < Array.length attr then attr.(id) else -1 in
          live_set_matches_definition ~region_of (Ckks.Evaluator.create ~seed:3L prm) managed env)

(* --- graceful planner degradation ---------------------------------------- *)

let robust_compile_no_degradation () =
  let g = fig3_poly () in
  let _, report = Resbm.Driver.compile_robust prm g in
  check Alcotest.string "first tier wins" "resbm" report.Resbm.Report.manager;
  checkb "no fallbacks recorded" true (report.Resbm.Report.fallbacks = [])

let robust_compile_degrades_on_fuel () =
  let g = fig3_poly () in
  let m = Obs.Metrics.create () in
  let managed, report =
    Obs.with_metrics m (fun () -> Resbm.Driver.compile_robust ~fuel_steps:1 prm g)
  in
  check Alcotest.string "terminal tier survives" "eager" report.Resbm.Report.manager;
  checki "two recorded downgrades" 2 (List.length report.Resbm.Report.fallbacks);
  List.iter
    (fun (tier, reason) ->
      checkb (tier ^ " reason mentions fuel") true
        (String.length reason >= 4 && String.sub reason 0 4 = "fuel"))
    report.Resbm.Report.fallbacks;
  checki "fallbacks counted per tier" 1
    (Obs.Metrics.counter_value ~labels:[ ("tier", "resbm") ] m "planner_fallbacks_total");
  checki "fallbacks counted per tier" 1
    (Obs.Metrics.counter_value
       ~labels:[ ("tier", "waterline") ]
       m "planner_fallbacks_total");
  (* the degraded plan must still be a legal, runnable program *)
  checkb "eager-tier graph is scale-legal" true
    (Result.is_ok (Scale_check.run prm managed));
  let env = { Interp.inputs = [ ("x", input_env ~dim 3L) ]; consts = const_env ~dim } in
  let result = Interp.run (Ckks.Evaluator.create prm) managed env in
  checkb "eager-tier graph executes" true (result.Interp.op_count > 0)

let fallbacks_render_in_report () =
  let g = fig3_poly () in
  let _, report = Resbm.Driver.compile_robust ~fuel_steps:1 prm g in
  let rendered = Format.asprintf "%a" Resbm.Report.pp report in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "pp lists the failed tiers" true (contains rendered "degraded");
  checkb "pp names resbm" true (contains rendered "resbm failed");
  match Resbm.Report.to_json report with
  | Obs.Json.Obj fields ->
      (match List.assoc_opt "fallbacks" fields with
      | Some (Obs.Json.List l) -> checki "two JSON fallbacks" 2 (List.length l)
      | _ -> Alcotest.fail "fallbacks missing from report JSON")
  | _ -> Alcotest.fail "report JSON not an object"

let fuel_spend_is_metered () =
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      let fuel = Resbm.Fuel.create ~stage:"test" 2 in
      Resbm.Fuel.spend fuel;
      Resbm.Fuel.spend fuel;
      (match Resbm.Fuel.spend fuel with
      | _ -> Alcotest.fail "expected exhaustion"
      | exception Resbm.Fuel.Exhausted stage -> check Alcotest.string "stage" "test" stage);
      checki "remaining" 0 (Resbm.Fuel.remaining fuel));
  checki "spend counted" 2
    (Obs.Metrics.counter_value ~labels:[ ("stage", "test") ] m "planner_fuel_spent_total");
  checki "exhaustion counted" 1
    (Obs.Metrics.counter_value
       ~labels:[ ("stage", "test") ]
       m "planner_fuel_exhausted_total")

let fuel_drains_exactly () =
  (* One spend per unit: a drained budget reads 0, spends past it raise
     without consuming, and the metric counts successful spends only. *)
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      let fuel = Resbm.Fuel.create ~stage:"drain" 100 in
      for _ = 1 to 100 do
        Resbm.Fuel.spend fuel
      done;
      checki "budget fully drained" 0 (Resbm.Fuel.remaining fuel));
  checki "every spend counted exactly once" 100
    (Obs.Metrics.counter_value ~labels:[ ("stage", "drain") ] m "planner_fuel_spent_total");
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      let fuel = Resbm.Fuel.create ~stage:"drain" 30 in
      (match
         for _ = 1 to 100 do
           Resbm.Fuel.spend fuel
         done
       with
      | () -> Alcotest.fail "expected exhaustion"
      | exception Resbm.Fuel.Exhausted stage -> check Alcotest.string "stage" "drain" stage);
      checki "exhausted at zero" 0 (Resbm.Fuel.remaining fuel));
  checki "successful spends only" 30
    (Obs.Metrics.counter_value ~labels:[ ("stage", "drain") ] m "planner_fuel_spent_total");
  let fuel = Resbm.Fuel.create ~stage:"drain" 5 in
  (match Resbm.Fuel.spend ~cost:6 fuel with
  | () -> Alcotest.fail "expected exhaustion"
  | exception Resbm.Fuel.Exhausted _ -> ());
  checki "a failed spend consumes nothing" 5 (Resbm.Fuel.remaining fuel)

let finite_fuel_degrades_reproducibly () =
  (* Half the planning steps of an unlimited ResNet-20 compile: the same
     budget must exhaust at the same step, so both degraded compiles pick
     the same tier and the same plan. *)
  let dfg () = (Nn.Lowering.lower Nn.Model.resnet20).Nn.Lowering.dfg in
  let _, full = Resbm.Variants.compile Resbm.Variants.resbm prm (dfg ()) in
  let fuel_steps = Resbm.Driver.planner_steps full.Resbm.Report.profile / 2 in
  checkb "the budget bounds real work" true (fuel_steps > 0);
  let degraded () = Resbm.Driver.compile_robust ~fuel_steps prm (dfg ()) in
  let ((_, a) as ra) = degraded () in
  let ((_, b) as rb) = degraded () in
  checkb "the resbm tier ran out of fuel" true (a.Resbm.Report.fallbacks <> []);
  checkb "same fallbacks" true (a.Resbm.Report.fallbacks = b.Resbm.Report.fallbacks);
  check Alcotest.string "same terminal manager" a.Resbm.Report.manager
    b.Resbm.Report.manager;
  checkb "same plan" true (fingerprint ra = fingerprint rb)

(* --- chaos campaigns ------------------------------------------------------ *)

let chaos_config =
  {
    Resilience.Chaos.default with
    Resilience.Chaos.trials = 8;
    models = [ "tiny" ];
    l_max = 9;
    dim = 16;
  }

let chaos_campaign_is_deterministic () =
  let r1 = Resilience.Chaos.run chaos_config in
  let r2 = Resilience.Chaos.run chaos_config in
  check Alcotest.string "byte-identical reports"
    (Obs.Json.to_string (Resilience.Chaos.to_json r1))
    (Obs.Json.to_string (Resilience.Chaos.to_json r2))

let chaos_campaign_recovers () =
  let m = Obs.Metrics.create () in
  let r = Resilience.Chaos.run ~metrics:m chaos_config in
  let ms = List.hd r.Resilience.Chaos.models in
  checki "all trials ran" 8 ms.Resilience.Chaos.trials_run;
  checkb "faults were injected" true (ms.Resilience.Chaos.injected_faults > 0);
  checkb "injection-free trials replay the reference exactly" true
    ms.Resilience.Chaos.clean_identical;
  checkb "faulted trials recover" true (r.Resilience.Chaos.overall_recovery_rate >= 0.95);
  checki "trials counted" 8
    (Obs.Metrics.counter_value ~labels:[ ("model", "tiny") ] m "chaos_trials_total");
  (* The report shares the serving recovery-accounting schema at every
     level: trial, model, and campaign JSON all carry a "recovery" object. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let rendered = Obs.Json.to_string (Resilience.Chaos.to_json r) in
  List.iter
    (fun key -> checkb (key ^ " in chaos JSON") true (contains rendered key))
    [ "\"recovery\""; "\"recovery_ms_by_kind\""; "\"backoff_ms_total\""; "\"capped_backoffs\"" ];
  checkb "campaign-level backoff aggregated" true (r.Resilience.Chaos.backoff_ms_total >= 0.0)

(* One supervised ResNet-20 run under a seeded injector (two noise
   spikes, two slot corruptions, two transients), slot for slot:
   rollbacks replay from checkpoints, so the digest pins the evaluator's
   and the injector's streams across every retry.  Taken before the slot
   kernels became loops.  Stronger spikes, or other injector seeds, end
   such a run in all-NaN outputs, which no digest can pin
   ([slots_finite]). *)
let recovery_resnet20_is_pinned () =
  let p, managed, env, region_of = resnet20_env ~dim:32 in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 0x2EC1L;
        budget = 6;
        rules =
          [
            Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:0.01 ~mag:8.0;
            Ckks.Fault.rule Ckks.Fault.Slot_corrupt ~prob:0.01 ~mag:(-6.0);
            Ckks.Fault.rule Ckks.Fault.Transient ~prob:0.005 ~mag:0.0;
          ];
      }
  in
  let result, stats =
    Ckks.Fault.with_faults inj (fun () ->
        Resilience.Recovery.run ~region_of (Ckks.Evaluator.create ~seed:9L p) managed env)
  in
  checki "injected" 6 stats.Resilience.Recovery.injected_faults;
  checki "retries" 4 stats.Resilience.Recovery.retries;
  checkb "outputs finite" true
    (slots_finite result.Interp.outputs);
  check Alcotest.string "output slot digest" "8612a4f4fa2fcb5e2a1be61b2a1a6160"
    (slots_digest result.Interp.outputs)

let suite =
  [
    case "structured errors: every Table 1 constraint path" constraint_fixtures;
    case "evaluator errors counted exactly once" evaluator_errors_counted_once;
    case "interp illegal-graph errors counted exactly once"
      interp_illegal_graph_counted_once;
    case "injected transients escape plain runs, counted once"
      injected_transient_counted_once;
    case "injector campaigns are deterministic" injector_is_deterministic;
    case "fault budget caps injections" budget_caps_injections;
    case "rules filter by op and node" rules_filter_by_op_and_node;
    case "injections leave fault trace instants" injection_leaves_trace_instant;
    case "recovery survives an injected transient" recovery_survives_transient;
    case "recovery survives a noise spike" recovery_survives_noise_spike;
    case "exponential backoff is capped and counted" backoff_is_capped_and_counted;
    case "panic refresh repairs noise when retries are off"
      panic_refresh_when_retries_disabled;
    case "checkpoint eviction respects the byte budget"
      recovery_checkpoints_respect_budget;
    case "slot checksum detects sub-floor corruption"
      recovery_detects_subfloor_corruption;
    case "eviction keeps the highest-value checkpoint"
      recovery_eviction_keeps_expensive_guard;
    recovery_faultoff_identity;
    case "live_cts and snapshots match the liveness definition (ResNet-20)"
      live_cts_matches_definition_resnet20;
    live_cts_matches_definition_random;
    case "compile_robust: first tier wins when healthy" robust_compile_no_degradation;
    case "compile_robust: fuel exhaustion degrades to eager"
      robust_compile_degrades_on_fuel;
    case "fallbacks render in pp and JSON" fallbacks_render_in_report;
    case "fuel spend and exhaustion are metered" fuel_spend_is_metered;
    case "chaos campaign is byte-deterministic" chaos_campaign_is_deterministic;
    case "chaos campaign recovers injected faults" chaos_campaign_recovers;
    case "fuel: spends drain a budget exactly" fuel_drains_exactly;
    case "compile_robust: a finite budget degrades reproducibly"
      finite_fuel_degrades_reproducibly;
    case "recovery under a seeded injector is pinned (ResNet-20)"
      recovery_resnet20_is_pinned;
  ]
