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

(* --- every raise path leaves exactly one fhe_error instant ------------- *)

(* The causes carried by a trace's "fhe_error" instants, in order. *)
let fhe_error_causes tr =
  List.filter_map
    (function
      | Obs.Trace.Instant { Obs.Trace.iname = "fhe_error"; detail; _ } -> (
          match List.assoc_opt "cause" detail with
          | Some (Obs.Json.String c) -> Some c
          | _ -> Some "")
      | _ -> None)
    (Obs.Trace.events tr)

let evaluator_errors_counted_once () =
  let ev = Ckks.Evaluator.create ~seed:12L prm in
  let tr = Obs.Trace.create () in
  Obs.with_trace tr (fun () ->
      match Ckks.Evaluator.add_cc ev (mk ~level:2 ()) (mk ~level:1 ()) with
      | _ -> Alcotest.fail "expected Fhe_error"
      | exception Ckks.Evaluator.Fhe_error _ -> ());
  checkb "one instant, carrying the cause" true
    (fhe_error_causes tr = [ "level_mismatch" ])

let interp_illegal_graph_counted_once () =
  (* fig3 unmanaged: statically illegal (scale mismatch at the final add),
     so the interpreter raises the structured Illegal_graph error through
     the same counted funnel. *)
  let g = fig3_poly () in
  let tr = Obs.Trace.create () in
  let env = { Interp.inputs = [ ("x", input_env ~dim 3L) ]; consts = const_env ~dim } in
  Obs.with_trace tr (fun () ->
      match Interp.run (Ckks.Evaluator.create prm) g env with
      | _ -> Alcotest.fail "expected Fhe_error"
      | exception Ckks.Evaluator.Fhe_error e ->
          check Alcotest.string "cause" "illegal_graph"
            (Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause);
          checkb "names the faulting node" true (e.Ckks.Evaluator.node >= 0));
  checkb "one instant through the interpreter" true
    (fhe_error_causes tr = [ "illegal_graph" ])

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
  let tr = Obs.Trace.create () in
  let failed_op =
    Obs.with_trace tr (fun () ->
        Ckks.Fault.with_faults inj (fun () ->
            match Interp.run (Ckks.Evaluator.create p) managed env with
            | _ -> Alcotest.fail "expected the injected transient to escape"
            | exception Ckks.Evaluator.Fhe_error e ->
                checkb "retryable" true (Ckks.Evaluator.transient e);
                checkb "attributed to a node" true (e.Ckks.Evaluator.node >= 0);
                e.Ckks.Evaluator.op))
  in
  checkb "error recorded once" true (fhe_error_causes tr = [ "injected_transient" ]);
  match Ckks.Fault.injections inj with
  | [ i ] ->
      checkb "injection recorded once, with its kind and op" true
        (i.Ckks.Fault.inj_kind = Ckks.Fault.Transient && i.Ckks.Fault.inj_op = failed_op)
  | l -> Alcotest.failf "expected one injection, got %d" (List.length l)

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
      List.map Ckks.Ciphertext.to_array result.Interp.outputs )
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
           (fun i v -> Float.abs (v -. Ckks.Ciphertext.get y i))
           (Ckks.Ciphertext.to_array x)))
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
  let ledger = stats.Resilience.Recovery.recovery in
  checkb "backoff charged" true (ledger.Resilience.Recovery.backoff_ms_total > 0.0);
  checkb "recovery latency attributed to transient" true
    (List.mem_assoc "transient" ledger.Resilience.Recovery.recovery_ms_by_kind);
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
  let _, stats =
    Ckks.Fault.with_faults inj (fun () ->
        Resilience.Recovery.run ~config ~region_of
          (Ckks.Evaluator.create ~seed:9L p) managed env)
  in
  checkb "enough rollbacks to hit the cap" true (stats.Resilience.Recovery.retries >= 2);
  let ledger = stats.Resilience.Recovery.recovery in
  checkb "capped backoffs counted" true (ledger.Resilience.Recovery.capped_backoffs >= 1);
  checkb "total backoff respects the cap" true
    (ledger.Resilience.Recovery.backoff_ms_total
    <= 15.0 *. float_of_int stats.Resilience.Recovery.retries);
  (* 10, 20 -> 15, 40 -> 15, ...: every retry after the first is capped *)
  checki "every retry past the first is capped"
    (stats.Resilience.Recovery.retries - 1)
    ledger.Resilience.Recovery.capped_backoffs

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

(* The one-off [Recovery.run] is [run_program] on a freshly prepared
   program with the sound uncapped noise analysis: on a faulted
   ResNet-20 run whose supervisor rolls back, both give the same output
   bits and the same stats.  The plan is one where the default analysis
   (magnitude-capped) would flag one more boundary and retry three
   times instead of two, so a default other than the sound one fails. *)
let run_equals_run_program_with_sound_noise () =
  let l_max = 16 and dim = 16 in
  let p = Ckks.Params.at_l_max l_max in
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let managed, report = Resbm.Driver.compile p lowered.Nn.Lowering.dfg in
  let region_of = Resbm.Report.region_of_node report in
  let env =
    {
      Interp.inputs =
        [
          (lowered.Nn.Lowering.input_name, (Nn.Dataset.images ~seed:7L ~dim ~count:1 ()).(0));
        ];
      consts = Nn.Lowering.resolver lowered ~dim;
    }
  in
  let plan =
    Resilience.Chaos.trial_plan (Ckks.Prng.create 17L) ~rate:0.05 ~budget:3
      ~no_retries:false ~targets:[]
  in
  let supervised run =
    Ckks.Fault.with_faults (Ckks.Fault.create plan) (fun () ->
        run (Ckks.Evaluator.create ~seed:0x5E1L p))
  in
  let one_off, s1 =
    supervised (fun ev -> Resilience.Recovery.run ~region_of ev managed env)
  in
  let noise = Noise_check.analyse ~magnitude_cap:Float.infinity p managed in
  let program = Interp.Program.make ~region_of p managed in
  let prepared, s2 =
    supervised (fun ev ->
        Resilience.Recovery.run_program ~noise:(Resilience.Recovery.expect noise) program ev env)
  in
  checkb "faults injected" true (s1.Resilience.Recovery.injected_faults > 0);
  checki "the supervisor rolled back twice" 2 s1.Resilience.Recovery.retries;
  check Alcotest.string "same output bits" (slots_digest one_off.Interp.outputs)
    (slots_digest prepared.Interp.outputs);
  check Alcotest.int64 "same simulated latency"
    (Int64.bits_of_float one_off.Interp.latency_ms)
    (Int64.bits_of_float prepared.Interp.latency_ms);
  checkb "same stats" true (s1 = s2)

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
    (List.mem_assoc "slot_corrupt"
       stats.Resilience.Recovery.recovery.Resilience.Recovery.recovery_ms_by_kind);
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
  let order = Interp.Program.order (Interp.Program.make prm managed) in
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
                 Ckks.Ciphertext.to_array a = Ckks.Ciphertext.to_array b
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
   a run on to the next boundary, a panic refresh of one live value
   (one live at the snapshot when there is one) and a rollback must
   restore exactly that set, and the replayed span must then reach the
   next boundary again.  The refresh is the one write [live_cts ~after]
   reports past the stamp before it. *)
let live_set_matches_definition ~region_of ev managed env =
  let program = Interp.Program.make (Ckks.Evaluator.params ev) managed in
  let s = Interp.Session.create program ev in
  let order = Interp.Session.order s in
  let sched = Interp.Program.schedule program in
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
  let refresh_one p =
    (* A size-3 product awaiting its relinearisation cannot be refreshed. *)
    match
      List.filter (fun (_, c) -> c.Ckks.Ciphertext.size = 2) (Interp.Session.live_cts s)
    with
    | [] -> true
    | (first, _) :: _ as live ->
        let id =
          match List.find_opt (fun (id, _) -> List.mem id (expected p)) live with
          | Some (id, _) -> id
          | None -> first
        in
        let w = Interp.Session.writes s in
        let c' = Interp.Session.refresh s id in
        (match Interp.Session.live_cts ~after:w s with
        | [ (id', c) ] -> id' = id && c == c'
        | _ -> false)
        && List.assoc id (Interp.Session.live_cts s) == c'
  in
  let ok = ref (same (Interp.Session.live_cts s) (expected 0)) in
  let pos = ref 0 in
  while !ok && !pos < n do
    let p = !pos in
    let snap = Interp.Session.snapshot s in
    let q = exec_to_boundary p in
    ok := !ok && same (Interp.Session.live_cts s) (expected q);
    ok := !ok && refresh_one p;
    (* The span just run wrote only nodes at [p, q), none of which is in
       [expected p], and the refresh is undone: the restored set must be
       the pre-snapshot values. *)
    let resume = Interp.Session.rollback s snap in
    ok := !ok && resume = p && same (Interp.Session.live_cts s) (expected p);
    let q' = exec_to_boundary p in
    ok := !ok && q' = q && same (Interp.Session.live_cts s) (expected q);
    pos := q
  done;
  !ok

let live_cts_matches_definition_models () =
  let l_max = 16 and dim = 16 in
  let prm16 = Ckks.Params.at_l_max l_max in
  List.iter
    (fun model ->
      let lowered = Nn.Lowering.lower model in
      let managed, report = Resbm.Driver.compile prm16 lowered.Nn.Lowering.dfg in
      let attr = report.Resbm.Report.region_of in
      let region_of id = if id >= 0 && id < Array.length attr then attr.(id) else -1 in
      let image = (Nn.Dataset.images ~seed:31L ~dim ~count:1 ()).(0) in
      let env =
        {
          Interp.inputs = [ (lowered.Nn.Lowering.input_name, image) ];
          consts = Nn.Lowering.resolver lowered ~dim;
        }
      in
      checkb
        (model.Nn.Model.name ^ ": live_cts, refresh and rollback match the definition at every boundary")
        true
        (live_set_matches_definition ~region_of (Ckks.Evaluator.create ~seed:5L prm16) managed env))
    [ Nn.Model.tiny; Nn.Model.lenet5; Nn.Model.resnet20 ]

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
  let p = Obs.Profile.create () in
  let r = Obs.with_profile p (fun () -> Resilience.Chaos.run chaos_config) in
  let ms = List.hd r.Resilience.Chaos.models in
  checki "all trials ran" 8 ms.Resilience.Chaos.trials_run;
  checkb "faults were injected" true (ms.Resilience.Chaos.injected_faults > 0);
  checkb "injection-free trials replay the reference exactly" true
    ms.Resilience.Chaos.clean_identical;
  checkb "faulted trials recover" true (r.Resilience.Chaos.overall_recovery_rate >= 0.95);
  checki "faulted trials published" ms.Resilience.Chaos.faulted_trials
    (Obs.Profile.counter p "chaos_faulted_total");
  checki "recovered trials published" ms.Resilience.Chaos.recovered_trials
    (Obs.Profile.counter p "chaos_recovered_total");
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
  checkb "campaign-level backoff aggregated" true
    (r.Resilience.Chaos.recovery.Resilience.Recovery.backoff_ms_total >= 0.0)

(* [Chaos.trial_plan] bit for bit, in all three modes, on one fixed
   stream: the seed, then each rule's kind, nodes and prob/mag bits.  The
   order of its draws is what every pinned campaign (chaos and serving
   alike) was recorded under; a reordered draw fails here by name before
   it moves a report digest. *)
let trial_plan_draws_are_pinned () =
  let render (p : Ckks.Fault.plan) =
    Printf.sprintf "seed %Lx" p.Ckks.Fault.seed
    :: List.map
         (fun (r : Ckks.Fault.rule) ->
           Printf.sprintf "%s [%s] %Lx %Lx"
             (Ckks.Fault.kind_name r.Ckks.Fault.kind)
             (String.concat ";" (List.map string_of_int r.Ckks.Fault.nodes))
             (Int64.bits_of_float r.Ckks.Fault.prob)
             (Int64.bits_of_float r.Ckks.Fault.mag))
         p.Ckks.Fault.rules
  in
  let plans ~no_retries ~targets =
    let rng = Ckks.Prng.create 0x7E57L in
    let draw () =
      Resilience.Chaos.trial_plan rng ~rate:0.02 ~budget:3 ~no_retries ~targets
    in
    let first = draw () in
    let second = draw () in
    checki "budget passed through" 3 first.Ckks.Fault.budget;
    (render first, render second)
  in
  let check_plan name expected actual =
    check Alcotest.(list string) name expected actual
  in
  let first, second = plans ~no_retries:false ~targets:[] in
  let default_first =
    [
      "seed 4c498419e23b4eb2";
      "transient [] 3f96798c881a91ca 0";
      "noise_spike [] 3f9172714fed8f41 4035b54f24b9cf89";
      "scale_drift [] 3f69cd3e85391c1f 4008000000000000";
      "slot_corrupt [] 3f819e59d09a3691 bffa3c26e294842e";
    ]
  in
  check_plan "default plan" default_first first;
  check_plan "default plan, second draw"
    [
      "seed b265e6f7a9264aad";
      "transient [] 3f9546bb35b3dc9a 0";
      "noise_spike [] 3f76168e29bb5c7b 4033be275636add7";
      "scale_drift [] 3f6f6227838aad85 4008000000000000";
      "slot_corrupt [] 3f938d219f46a635 c00d0a450df61ec0";
    ]
    second;
  let first, second = plans ~no_retries:true ~targets:[] in
  check_plan "no-retries plan"
    [ "seed 4c498419e23b4eb2"; "noise_spike [] 3f819e59d09a3691 4039de2290cbb9cc" ]
    first;
  check_plan "no-retries plan, second draw"
    [ "seed 24c9bc386715d8e6"; "noise_spike [] 3f9172714fed8f41 4035b54f24b9cf89" ]
    second;
  let first, _ = plans ~no_retries:false ~targets:[ 3; 7 ] in
  check_plan "targeted plan"
    ([
       "seed 4c498419e23b4eb2";
       "transient [3;7] 3fb6798c881a91ca 0";
       "noise_spike [3;7] 3fb172714fed8f41 4035b54f24b9cf89";
       "scale_drift [3;7] 3f89cd3e85391c1f 4008000000000000";
       "slot_corrupt [3;7] 3fa19e59d09a3691 bffa3c26e294842e";
     ]
    @ List.tl default_first)
    first

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

(* --- validate once: against the every-boundary oracle -------------------- *)

(* A model as a chaos campaign runs it: l_max 9, one 32-slot image, the
   sharp static noise prediction, one prepared program. *)
let chaos_setup name =
  let lowered = Nn.Lowering.lower (Option.get (Nn.Model.by_name name)) in
  let p = Ckks.Params.at_l_max 9 in
  let managed, report = Resbm.Driver.compile p lowered.Nn.Lowering.dfg in
  let program =
    Interp.Program.make ~region_of:(Resbm.Report.region_of_node report) p managed
  in
  let consts = Nn.Lowering.resolver lowered ~dim:32 in
  let env =
    {
      Interp.inputs =
        [
          ( lowered.Nn.Lowering.input_name,
            (Nn.Dataset.images ~seed:0xC4A05L ~dim:32 ~count:1 ()).(0) );
        ];
      consts;
    }
  in
  let noise =
    Noise_check.analyse ~const_magnitude:(Nn.Lowering.const_magnitude consts) p managed
  in
  (p, program, env, noise)

let tiny_setup = lazy (chaos_setup "tiny")
let lenet5_setup = lazy (chaos_setup "lenet5")
let resnet20_setup = lazy (chaos_setup "resnet20")

type supervised =
  | Finished of Interp.result * Resilience.Recovery.stats
  | Raised of Ckks.Evaluator.error

(* One supervised run under a fresh injector for [plan]: [run_program],
   or the oracle when [oracle]. *)
let supervise ?config ~oracle (p, program, env, noise) plan =
  Ckks.Fault.with_faults (Ckks.Fault.create plan) (fun () ->
      let ev = Ckks.Evaluator.create ~seed:0x5E1L p in
      match
        if oracle then
          let r, s, _ = recovery_oracle ?config ~noise program ev env in
          (r, s)
        else
          Resilience.Recovery.run_program ?config ~noise:(Resilience.Recovery.expect noise)
            program ev env
      with
      | r, s -> Finished (r, s)
      | exception Ckks.Evaluator.Fhe_error e -> Raised e)

let output_bits (r : Interp.result) =
  List.map
    (fun c -> Array.map Int64.bits_of_float (Ckks.Ciphertext.to_array c))
    r.Interp.outputs

(* [run_program] and the oracle agree: output slots bit for bit, latency
   and op count, every stats field, or the raised error.  Returns
   [run_program]'s outcome. *)
let agrees_with_oracle ?config setup plan =
  let got = supervise ?config ~oracle:false setup plan in
  let want = supervise ?config ~oracle:true setup plan in
  let same =
    match (got, want) with
    | Finished (r1, s1), Finished (r2, s2) ->
        output_bits r1 = output_bits r2
        && Int64.equal
             (Int64.bits_of_float r1.Interp.latency_ms)
             (Int64.bits_of_float r2.Interp.latency_ms)
        && r1.Interp.op_count = r2.Interp.op_count
        && compare s1 s2 = 0
    | Raised e1, Raised e2 -> compare e1 e2 = 0
    | _ -> false
  in
  (same, got)

let no_retries_config = { Resilience.Recovery.default with Resilience.Recovery.max_attempts = 0 }

let trial ~model ~seed ~rate ~no_retries =
  let setup = Lazy.force model in
  let plan =
    Resilience.Chaos.trial_plan (Ckks.Prng.create (Int64.of_int seed)) ~rate ~budget:3
      ~no_retries ~targets:[]
  in
  let config = if no_retries then Some no_retries_config else None in
  agrees_with_oracle ?config setup plan

let validate_once_matches_oracle =
  qcheck ~count:40 "validate-once recovery = the every-boundary oracle"
    QCheck2.Gen.(
      quad
        (oneofl [ tiny_setup; lenet5_setup; resnet20_setup ])
        (int_bound 1_000_000)
        (oneofl [ 0.02; 0.05; 0.1; 0.3 ])
        bool)
    (fun (model, seed, rate, no_retries) -> fst (trial ~model ~seed ~rate ~no_retries))

(* The same comparison on fixed seeds, which reach every boundary
   outcome: a rollback, a panic refresh and a raised error. *)
let validate_once_oracle_sweep () =
  let retries = ref 0 and refreshes = ref 0 and raised = ref 0 in
  for seed = 0 to 23 do
    List.iter
      (fun model ->
        let no_retries = seed mod 3 = 0 in
        let same, got = trial ~model ~seed ~rate:0.3 ~no_retries in
        checkb (Printf.sprintf "seed %d agrees with the oracle" seed) true same;
        match got with
        | Finished (_, s) ->
            retries := !retries + s.Resilience.Recovery.retries;
            refreshes := !refreshes + s.Resilience.Recovery.panic_refreshes
        | Raised _ -> incr raised)
      [ tiny_setup; lenet5_setup; resnet20_setup ]
  done;
  checkb "some run rolled back" true (!retries > 0);
  checkb "some run panic-refreshed" true (!refreshes > 0);
  checkb "some run raised" true (!raised > 0)

(* The first ciphertext node live across at least three boundaries with
   a checkpoint, with its position and the boundary positions. *)
let long_lived program =
  let sched = Interp.Program.schedule program in
  let order = sched.Liveness.order and g = Interp.Program.graph program in
  let n = Array.length order in
  let bounds = List.filter (Interp.Program.boundary program) (List.init n Fun.id) in
  let spans id =
    let at = sched.Liveness.order_index.(id) in
    List.filter (fun b -> b > at && Liveness.live_at sched ~at:b id) bounds
  in
  let id =
    Array.to_list order
    |> List.find (fun id ->
           Op.produces_ct (Dfg.node g id).Dfg.kind && List.length (spans id) >= 3)
  in
  (id, sched.Liveness.order_index.(id), bounds)

let rule = Ckks.Fault.rule

(* A corrupted slot far below the noise floor on a value that stays live
   across several boundaries is caught at the first of them: the one
   rollback re-executes exactly the span from the checkpoint before the
   corruption to the next boundary. *)
let validate_once_catches_corruption_first () =
  let ((_, program, _, _) as setup) = Lazy.force lenet5_setup in
  let id, at, bounds = long_lived program in
  let cp = List.fold_left (fun acc b -> if b <= at then b else acc) 0 bounds in
  let first = List.find (fun b -> b > at) bounds in
  let plan =
    { Ckks.Fault.seed = 5L; budget = 1; rules = [ rule ~nodes:[ id ] Ckks.Fault.Slot_corrupt ~prob:1.0 ~mag:(-30.0) ] }
  in
  let same, got = agrees_with_oracle setup plan in
  checkb "agrees with the oracle" true same;
  match got with
  | Finished (_, s) ->
      checki "one rollback" 1 s.Resilience.Recovery.retries;
      let wasted =
        Interp.Program.prefix_ms program first -. Interp.Program.prefix_ms program cp
      in
      check_float ~eps:1e-6 "re-executed from the checkpoint to the first boundary"
        (wasted +. Resilience.Recovery.default.Resilience.Recovery.backoff_ms)
        (List.assoc "slot_corrupt"
           s.Resilience.Recovery.recovery.Resilience.Recovery.recovery_ms_by_kind)
  | _ -> Alcotest.fail "the run raised"

(* A panic refresh whose result is corrupted makes a new value: the next
   boundary checks it and, with retries off, raises on its node. *)
let validate_once_checks_refreshed_values () =
  let ((_, program, _, _) as setup) = Lazy.force lenet5_setup in
  let id, _, _ = long_lived program in
  let plan =
    {
      Ckks.Fault.seed = 5L;
      budget = 2;
      rules =
        [
          rule ~ops:[ "refresh" ] ~nodes:[ id ] Ckks.Fault.Slot_corrupt ~prob:1.0 ~mag:(-30.0);
          rule ~nodes:[ id ] Ckks.Fault.Noise_spike ~prob:1.0 ~mag:30.0;
        ];
    }
  in
  let same, got = agrees_with_oracle ~config:no_retries_config setup plan in
  checkb "agrees with the oracle" true same;
  match got with
  | Raised e ->
      check Alcotest.string "cause" "state_divergence"
        (Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause);
      checki "on the refreshed node" id e.Ckks.Evaluator.node;
      let msg = e.Ckks.Evaluator.message in
      checkb "by the slot checksum" true
        (String.starts_with ~prefix:(Printf.sprintf "recovery: node %d failed slot-integrity" id)
           msg)
  | Finished _ -> Alcotest.fail "the corrupted refresh went unchecked"

(* Two ciphertexts written between the same two boundaries and both live
   at the second. *)
let written_together program =
  let sched = Interp.Program.schedule program in
  let order = sched.Liveness.order and g = Interp.Program.graph program in
  let bounds =
    List.filter (Interp.Program.boundary program) (List.init (Array.length order) Fun.id)
  in
  let rec find lo = function
    | [] -> Alcotest.fail "no two values written between the same boundaries"
    | hi :: rest -> (
        let live_new =
          List.filter
            (fun id ->
              Op.produces_ct (Dfg.node g id).Dfg.kind && Liveness.live_at sched ~at:hi id)
            (List.init (hi - lo) (fun k -> order.(lo + k)))
        in
        match live_new with a :: b :: _ -> [ a; b ] | _ -> find hi rest)
  in
  find 0 bounds

(* With retries off, a boundary that sees two damaged values raises on
   the least id, as the every-value oracle does. *)
let validate_once_raises_on_least_id () =
  let ((_, program, _, _) as setup) = Lazy.force lenet5_setup in
  let nodes = written_together program in
  List.iter
    (fun (kind, mag, prefix) ->
      let plan =
        { Ckks.Fault.seed = 5L; budget = -1; rules = [ rule ~nodes kind ~prob:1.0 ~mag ] }
      in
      let same, got = agrees_with_oracle ~config:no_retries_config setup plan in
      checkb (prefix ^ ": agrees with the oracle") true same;
      match got with
      | Raised e ->
          checki (prefix ^ ": least id") (List.fold_left min max_int nodes) e.Ckks.Evaluator.node;
          checkb prefix true
            (String.starts_with
               ~prefix:(Printf.sprintf "recovery: node %d %s" e.Ckks.Evaluator.node prefix)
               e.Ckks.Evaluator.message)
      | Finished _ -> Alcotest.fail "the damage went unchecked")
    [
      (Ckks.Fault.Slot_corrupt, -30.0, "failed slot-integrity");
      (Ckks.Fault.Scale_drift, 1.0, "diverged from the plan");
    ]

(* A rollback keeps the validation mark: a transient fault at the first
   node after a checkpoint rolls back to it, and the values it restores —
   validated at the boundary where the checkpoint was taken, and live at
   the next one — are not validated again.  Only the replay's writes
   are, so [recovery.validations] reads exactly the fault-free run's
   count. *)
let validate_once_keeps_mark_across_rollback () =
  let ((_, program, _, _) as setup) = Lazy.force lenet5_setup in
  let sched = Interp.Program.schedule program and g = Interp.Program.graph program in
  let order = sched.Liveness.order in
  let n = Array.length order in
  let is_ct id = Op.produces_ct (Dfg.node g id).Dfg.kind in
  let at =
    List.find
      (fun b -> Interp.Program.boundary program b && is_ct order.(b))
      (List.init (n - 1) (fun i -> i + 1))
  in
  let next = List.find (Interp.Program.boundary program) (List.init (n - at) (fun i -> at + 1 + i)) in
  let restored =
    Array.to_list order
    |> List.filter (fun id ->
           is_ct id && sched.Liveness.order_index.(id) < at && Liveness.live_at sched ~at:next id)
    |> List.length
  in
  checkb "values restored by the rollback are live at the next boundary" true (restored > 0);
  let counted plan =
    let prof = Obs.Profile.create () in
    let got = Obs.with_profile prof (fun () -> supervise ~oracle:false setup plan) in
    (got, Obs.Profile.counter prof "recovery.validations")
  in
  let plan rules = { Ckks.Fault.seed = 5L; budget = 1; rules } in
  let _, clean = counted (plan []) in
  let transient = plan [ rule ~nodes:[ order.(at) ] Ckks.Fault.Transient ~prob:1.0 ~mag:0.0 ] in
  let got, faulted = counted transient in
  (match got with
  | Finished (_, s) -> checki "one rollback" 1 s.Resilience.Recovery.retries
  | Raised _ -> Alcotest.fail "the run raised");
  checki "validations, fault-free run" 91 clean;
  checki "restored values not validated again" clean faulted;
  checkb "agrees with the oracle" true (fst (agrees_with_oracle setup transient))

(* --- the session's register file, undo journal and shared tables --------- *)

(* Only the newest snapshot can be restored: an older one of the same
   session, or one of another session, is refused before anything
   changes, and the newest restores as often as asked. *)
let rollback_only_to_newest () =
  let p, program, env, _ = Lazy.force tiny_setup in
  let order = Interp.Program.order program in
  let s = Interp.Session.create program (Ckks.Evaluator.create p) in
  let older = Interp.Session.snapshot s in
  Interp.Session.exec s env order.(0);
  let newer = Interp.Session.snapshot s in
  Interp.Session.exec s env order.(1);
  let refused snap =
    match Interp.Session.rollback s snap with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let state () = (Interp.Session.latency_ms s, Interp.Session.writes s, Interp.Session.live_cts s) in
  let before = state () in
  checkb "an older snapshot is refused" true (refused older);
  checkb "a refused rollback changes nothing" true (state () = before);
  checki "the older snapshot still reads its position" 0 (Interp.Session.snapshot_at older);
  let other = Interp.Session.create program (Ckks.Evaluator.create p) in
  checkb "another session's snapshot is refused" true (refused (Interp.Session.snapshot other));
  checki "the newest restores" 1 (Interp.Session.rollback s newer);
  Interp.Session.exec s env order.(1);
  checki "and restores again" 1 (Interp.Session.rollback s newer)

(* A run's attribution is its final path, and that path executes every
   scheduled node once however often it rolled back: a supervised run
   that rolled back reports the fault-free run's [node_costs]. *)
let node_costs_survive_rollback () =
  let ((p, program, env, _) as setup) = Lazy.force lenet5_setup in
  let order = Interp.Program.order program and g = Interp.Program.graph program in
  let at =
    List.find
      (fun b ->
        Interp.Program.boundary program b && Op.produces_ct (Dfg.node g order.(b)).Dfg.kind)
      (List.init (Array.length order - 1) (fun i -> i + 1))
  in
  let plan =
    {
      Ckks.Fault.seed = 5L;
      budget = 1;
      rules = [ rule ~nodes:[ order.(at) ] Ckks.Fault.Transient ~prob:1.0 ~mag:0.0 ];
    }
  in
  let clean = Interp.run_program program (Ckks.Evaluator.create ~seed:0x5E1L p) env in
  match supervise ~oracle:false setup plan with
  | Finished (r, s) ->
      checki "one rollback" 1 s.Resilience.Recovery.retries;
      checkb "node_costs = the fault-free run's" true
        (r.Interp.node_costs = clean.Interp.node_costs);
      checki "one entry per scheduled op"
        (Array.length order
        - List.length
            (List.filter
               (fun id ->
                 match (Dfg.node g id).Dfg.kind with
                 | Op.Input _ | Op.Const _ -> true
                 | _ -> false)
               (Array.to_list order)))
        (List.length r.Interp.node_costs)
  | Raised _ -> Alcotest.fail "the run raised"

(* Constants are encoded once per program and resolver: a second run
   with the same resolver asks it nothing, another resolver gets its own
   plaintexts, and every run's outputs are bit for bit those of a fresh
   program with that resolver. *)
let constants_encoded_once_per_resolver () =
  let p, program, env, _ = Lazy.force lenet5_setup in
  let fresh () = Interp.Program.make p (Interp.Program.graph program) in
  let asks = ref 0 in
  let counting name =
    incr asks;
    env.Interp.consts name
  in
  let halved name = Array.map (fun v -> v *. 0.5) (env.Interp.consts name) in
  let run prog consts =
    output_bits
      (Interp.run_program prog (Ckks.Evaluator.create ~seed:0x5E1L p) { env with Interp.consts })
  in
  let want = run (fresh ()) counting and want_halved = run (fresh ()) halved in
  checkb "the two resolvers' outputs differ" true (want <> want_halved);
  let prog = fresh () in
  asks := 0;
  checkb "cold" true (run prog counting = want);
  let consts =
    Array.fold_left
      (fun k id -> match (Dfg.node (Interp.Program.graph prog) id).Dfg.kind with Op.Const _ -> k + 1 | _ -> k)
      0 (Interp.Program.order prog)
  in
  checki "a cold run resolves each constant once" consts !asks;
  checkb "warm = cold" true (run prog counting = want);
  checki "a warm run resolves nothing" consts !asks;
  checkb "another resolver gets its own plaintexts" true (run prog halved = want_halved);
  checkb "and back" true (run prog counting = want);
  checki "the table was refilled" (2 * consts) !asks;
  let ev = Ckks.Evaluator.create ~seed:0x5E1L p in
  let r, _ =
    Resilience.Recovery.run_program
      ~noise:(Resilience.Recovery.expect (Noise_check.analyse p (Interp.Program.graph prog)))
      prog ev
      { env with Interp.consts = counting }
  in
  checkb "a supervised warm run too" true (output_bits r = want)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The session adds nothing to what the evaluator allocates.  On a warm
   program (constants encoded) an untraced, fault-free run that takes no
   snapshot allocates, over all its [exec]s, exactly the minor words of
   the evaluator calls alone — the same calls, in the same order, timed
   one by one in a loop of our own: 0 words per exec beyond the
   evaluator's results. *)
let session_exec_allocates_nothing () =
  let p, program, env, _ = Lazy.force lenet5_setup in
  let g = Interp.Program.graph program and order = Interp.Program.order program in
  ignore (Interp.run_program program (Ckks.Evaluator.create p) env);
  let s = Interp.Session.create program (Ckks.Evaluator.create ~seed:7L p) in
  let session =
    minor_words (fun () ->
        for i = 0 to Array.length order - 1 do
          Interp.Session.exec s env order.(i)
        done)
  in
  let ev = Ckks.Evaluator.create ~seed:7L p in
  let no_ct = Ckks.Ciphertext.make ~slots:[||] ~scale_bits:1 ~level:0 ~size:2 ~err:0.0 in
  let cts = Array.make (Dfg.node_count g) no_ct in
  let pts = Array.make (Dfg.node_count g) (Ckks.Plaintext.encode ~scale_bits:1 [||]) in
  let info = Interp.Program.info program in
  let evaluator = ref 0.0 in
  Array.iter
    (fun id ->
      let node = Dfg.node g id in
      let a k = cts.(node.Dfg.args.(k)) and b k = pts.(node.Dfg.args.(k)) in
      match node.Dfg.kind with
      | Op.Const { name } ->
          pts.(id) <-
            Ckks.Plaintext.encode ~scale_bits:info.(id).Scale_check.scale_bits
              (env.Interp.consts name)
      | kind ->
          let before = Gc.minor_words () in
          let c =
            match kind with
            | Op.Input { name; level; scale_bits } ->
                Ckks.Evaluator.encrypt ev ?level ?scale_bits (List.assoc name env.Interp.inputs)
            | Op.Add_cc -> Ckks.Evaluator.add_cc ev (a 0) (a 1)
            | Op.Add_cp -> Ckks.Evaluator.add_cp ev (a 0) (b 1)
            | Op.Mul_cc -> Ckks.Evaluator.mul_cc ev (a 0) (a 1)
            | Op.Mul_cp -> Ckks.Evaluator.mul_cp ev (a 0) (b 1)
            | Op.Rotate k -> Ckks.Evaluator.rotate ev (a 0) k
            | Op.Relin -> Ckks.Evaluator.relin ev (a 0)
            | Op.Rescale -> Ckks.Evaluator.rescale ev (a 0)
            | Op.Modswitch -> Ckks.Evaluator.modswitch ev (a 0)
            | Op.Bootstrap target_level -> Ckks.Evaluator.bootstrap ev (a 0) ~target_level
            | Op.Const _ -> assert false
          in
          evaluator := !evaluator +. (Gc.minor_words () -. before);
          cts.(id) <- c)
    order;
  checkb "the evaluator allocated" true (!evaluator > 0.0);
  check_float ~eps:0.0 "session words per exec beyond the evaluator's" 0.0
    ((session -. !evaluator) /. float_of_int (Array.length order))

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
    case "recovery: run = run_program with the sound noise analysis"
      run_equals_run_program_with_sound_noise;
    case "slot checksum detects sub-floor corruption"
      recovery_detects_subfloor_corruption;
    case "eviction keeps the highest-value checkpoint"
      recovery_eviction_keeps_expensive_guard;
    recovery_faultoff_identity;
    case "live_cts and snapshots match the liveness definition, refresh included (Tiny, LeNet-5, ResNet-20)"
      live_cts_matches_definition_models;
    live_cts_matches_definition_random;
    case "chaos campaign is byte-deterministic" chaos_campaign_is_deterministic;
    case "chaos campaign recovers injected faults" chaos_campaign_recovers;
    case "chaos trial plans draw in a pinned order" trial_plan_draws_are_pinned;
    case "recovery under a seeded injector is pinned (ResNet-20)"
      recovery_resnet20_is_pinned;
    validate_once_matches_oracle;
    case "validate-once recovery = the oracle on fixed seeds" validate_once_oracle_sweep;
    case "validate once: corruption caught at the first boundary"
      validate_once_catches_corruption_first;
    case "validate once: a corrupted panic refresh is caught next boundary"
      validate_once_checks_refreshed_values;
    case "validate once: damage raises on the least-id damaged value"
      validate_once_raises_on_least_id;
    case "validate once: values restored by a rollback are not validated again"
      validate_once_keeps_mark_across_rollback;
    case "session: rollback accepts only the newest snapshot" rollback_only_to_newest;
    case "session: node_costs of a rolled-back run = the fault-free run's"
      node_costs_survive_rollback;
    case "session: constants encoded once per program and resolver"
      constants_encoded_once_per_resolver;
    case "session: exec allocates nothing beyond the evaluator" session_exec_allocates_nothing;
  ]
