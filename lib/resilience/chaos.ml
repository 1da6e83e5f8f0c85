type config = {
  seed : int64;
  trials : int;
  models : string list;
  l_max : int;
  dim : int;
  rate : float;
  no_retries : bool;
  from_trace : bool;
}

let default =
  {
    seed = 0xC4A05L;
    trials = 25;
    models = [ "tiny" ];
    l_max = 9;
    dim = 64;
    rate = 0.02;
    no_retries = false;
    from_trace = false;
  }

type trial = {
  trial_index : int;
  injected : int;
  kinds : (string * int) list;
  completed : bool;
  recovered : bool;
  max_abs_delta : float;
  error : string option;
  retries : int;
  panic_refreshes : int;
  recovery : Recovery.accounting;
}

type model_summary = {
  model : string;
  compile_manager : string;
  tolerance : float;
  trials_run : int;
  faulted_trials : int;
  injected_faults : int;
  completed_trials : int;
  recovered_trials : int;
  clean_identical : bool;
  recovery_rate : float;
  faults_by_kind : (string * int) list;
  recovery : Recovery.accounting;
  total_retries : int;
  total_panic_refreshes : int;
  fault_targets : (int * float) list;
  trials : trial list;
}

type report = {
  config_seed : int64;
  models : model_summary list;
  total_faulted : int;
  total_recovered : int;
  overall_recovery_rate : float;
  recovery : Recovery.accounting;
}

(* Deterministic per-model salt so each model gets an independent fault
   stream regardless of its position in [config.models]. *)
let name_salt name =
  String.fold_left
    (fun a c -> Int64.add (Int64.mul a 131L) (Int64.of_int (Char.code c)))
    7L name

(* One fault plan per trial, every parameter drawn from the campaign
   stream: a retryable transient, a large noise spike (caught by the
   noise-floor validator), a bookkeeping scale drift (caught as
   structural divergence), and a large slot corruption (its quadrature
   noise bump drops the observed headroom below the floor).  Small silent
   slot corruptions are deliberately not generated — see ROADMAP.  The
   draws run seed first, then last rule first and each rule's magnitude
   before its probability: the order every pinned campaign was recorded
   in. *)
let trial_plan rng ~rate ~budget ~no_retries ~targets =
  let u lo hi = Ckks.Prng.uniform rng ~lo ~hi in
  let seed = Ckks.Prng.int64 rng in
  let rules =
    if no_retries then begin
      (* Retry-less campaigns inject only noise spikes: with
         [max_attempts = 0] every other kind raises unretried, while a
         spike drives the boundary validator straight into the panic
         re-bootstrap repair path — the branch this mode exists to
         exercise at scale. *)
      let spike_mag = u 18.0 28.0 in
      let spike_prob = rate *. u 0.25 1.0 in
      [ Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:spike_prob ~mag:spike_mag ]
    end
    else begin
      let corrupt_mag = u (-4.0) (-1.0) in
      let corrupt_prob = rate *. u 0.25 1.0 in
      let drift_prob = rate *. u 0.1 0.5 in
      let spike_mag = u 18.0 28.0 in
      let spike_prob = rate *. u 0.25 1.0 in
      let transient_prob = rate *. u 0.5 1.5 in
      [
        Ckks.Fault.rule Ckks.Fault.Transient ~prob:transient_prob ~mag:0.0;
        Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:spike_prob ~mag:spike_mag;
        Ckks.Fault.rule Ckks.Fault.Scale_drift ~prob:drift_prob ~mag:3.0;
        Ckks.Fault.rule Ckks.Fault.Slot_corrupt ~prob:corrupt_prob ~mag:corrupt_mag;
      ]
    end
  in
  let rules =
    if targets = [] then rules
    else
      (* Divergence-targeted campaign ([from_trace]): every rule gets a
         node-restricted copy with a 4x probability boost, placed first so
         it wins plan-order matching on hot-spot nodes.  The base rules
         stay behind it — the rest of the graph still sees background
         fire, just less of it. *)
      List.map
        (fun (r : Ckks.Fault.rule) ->
          {
            r with
            Ckks.Fault.nodes = targets;
            prob = Float.min 1.0 (4.0 *. r.Ckks.Fault.prob);
          })
        rules
      @ rules
  in
  { Ckks.Fault.seed; rules; budget }

(* Max injections per trial. *)
let trial_budget = 3

let max_abs_delta reference outputs =
  List.fold_left2
    (fun acc a b ->
      let d = ref acc in
      for i = 0 to Ckks.Ciphertext.length a - 1 do
        d := Float.max !d (Float.abs (Ckks.Ciphertext.get a i -. Ckks.Ciphertext.get b i))
      done;
      !d)
    0.0 reference outputs

let run_model cfg name =
  let model =
    match Nn.Model.by_name name with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Chaos.run: unknown model %S" name)
  in
  let lowered = Nn.Lowering.lower model in
  let prm = Ckks.Params.at_l_max cfg.l_max in
  let managed, report = Resbm.Driver.compile prm lowered.Nn.Lowering.dfg in
  (* One program serves the reference run and every trial. *)
  let program =
    Fhe_ir.Interp.Program.make ~region_of:(Resbm.Report.region_of_node report) prm managed
  in
  let image = (Nn.Dataset.images ~seed:cfg.seed ~dim:cfg.dim ~count:1 ()).(0) in
  let env =
    {
      Fhe_ir.Interp.inputs = [ (lowered.Nn.Lowering.input_name, image) ];
      consts = Nn.Lowering.resolver lowered ~dim:cfg.dim;
    }
  in
  (* Same evaluator seed for the reference and for every trial: an
     injection-free trial replays the exact reference noise stream, so its
     outputs must be bit-identical. *)
  let ev_seed = Int64.logxor cfg.seed 0x9E3779B97F4A7C15L in
  let ref_trace = if cfg.from_trace then Some (Obs.Trace.create ()) else None in
  (* Tracing is pure instrumentation, so a flight-recorded reference
     produces the same outputs bit-for-bit — the fault-off identity check
     below still holds under [from_trace]. *)
  let reference =
    Fhe_ir.Interp.run_program ?trace:ref_trace program
      (Ckks.Evaluator.create ~seed:ev_seed prm)
      env
  in
  let ref_outputs = reference.Fhe_ir.Interp.outputs in
  let max_err =
    List.fold_left
      (fun a (c : Ckks.Ciphertext.t) -> Float.max a c.Ckks.Ciphertext.err)
      0.0 ref_outputs
  in
  let tolerance = Float.max 1e-6 (32.0 *. max_err) in
  let rcfg =
    if cfg.no_retries then { Recovery.default with Recovery.max_attempts = 0 }
    else Recovery.default
  in
  (* Sharp static noise prediction — the lowering knows its constant
     amplitudes exactly, which widens the boundary validator's spike
     detection window well beyond the sound default. *)
  let noise =
    Fhe_ir.Noise_check.analyse
      ~const_magnitude:(Nn.Lowering.const_magnitude env.Fhe_ir.Interp.consts)
      ~scales:(Fhe_ir.Interp.Program.info program)
      ~order:(Fhe_ir.Interp.Program.order program)
      prm managed
  in
  let expected = Recovery.expect noise in
  let fault_targets =
    match ref_trace with
    | None -> []
    | Some tr -> Fhe_ir.Noise_check.trace_hotspots noise (Obs.Trace.op_events tr)
  in
  let targets = List.map fst fault_targets in
  if fault_targets <> [] then
    Obs.log_info ~event:"chaos.targets"
      ~fields:
        [
          ("model", Obs.Json.String name);
          ("targets", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) targets));
        ]
      (Printf.sprintf "aiming fault injection at %d trace hot-spots"
         (List.length targets));
  let rng = Ckks.Prng.create (Int64.logxor cfg.seed (name_salt name)) in
  let trials =
    List.init cfg.trials (fun t ->
        let plan =
          trial_plan rng ~rate:cfg.rate ~budget:trial_budget ~no_retries:cfg.no_retries
            ~targets
        in
        let injector = Ckks.Fault.create plan in
        let ev = Ckks.Evaluator.create ~seed:ev_seed prm in
        let outcome =
          Ckks.Fault.with_faults injector (fun () ->
              match Recovery.run_program ~config:rcfg ~noise:expected program ev env with
              | r -> Ok r
              | exception Ckks.Evaluator.Fhe_error e -> Error e)
        in
        let injected = Ckks.Fault.injected injector in
        let kinds =
          Recovery.tally ( + ) 0
            (List.map
               (fun (i : Ckks.Fault.injection) ->
                 (Ckks.Fault.kind_name i.Ckks.Fault.inj_kind, 1))
               (Ckks.Fault.injections injector))
        in
        match outcome with
        | Ok (result, stats) ->
            let delta = max_abs_delta ref_outputs result.Fhe_ir.Interp.outputs in
            {
              trial_index = t;
              injected;
              kinds;
              completed = true;
              recovered = delta <= tolerance;
              max_abs_delta = delta;
              error = None;
              retries = stats.Recovery.retries;
              panic_refreshes = stats.Recovery.panic_refreshes;
              recovery = stats.Recovery.recovery;
            }
        | Error e ->
            {
              trial_index = t;
              injected;
              kinds;
              completed = false;
              recovered = false;
              max_abs_delta = Float.nan;
              error = Some (Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause);
              retries = 0;
              panic_refreshes = 0;
              recovery = Recovery.no_recovery;
            })
  in
  let faulted = List.filter (fun t -> t.injected > 0) trials in
  let clean = List.filter (fun t -> t.injected = 0) trials in
  let recovered = List.filter (fun t -> t.recovered) faulted in
  {
    model = name;
    compile_manager = report.Resbm.Report.manager;
    tolerance;
    trials_run = List.length trials;
    faulted_trials = List.length faulted;
    injected_faults = List.fold_left (fun a t -> a + t.injected) 0 trials;
    completed_trials = List.length (List.filter (fun t -> t.completed) trials);
    recovered_trials = List.length recovered;
    clean_identical =
      List.for_all (fun t -> t.completed && t.max_abs_delta = 0.0) clean;
    recovery_rate =
      (if faulted = [] then 1.0
       else float_of_int (List.length recovered) /. float_of_int (List.length faulted));
    faults_by_kind = Recovery.tally ( + ) 0 (List.concat_map (fun t -> t.kinds) trials);
    recovery = Recovery.merge (List.map (fun (t : trial) -> t.recovery) trials);
    total_retries = List.fold_left (fun a t -> a + t.retries) 0 trials;
    total_panic_refreshes = List.fold_left (fun a t -> a + t.panic_refreshes) 0 trials;
    fault_targets;
    trials;
  }

let run cfg =
  let models = List.map (run_model cfg) cfg.models in
  let total_faulted = List.fold_left (fun a m -> a + m.faulted_trials) 0 models in
  let total_recovered = List.fold_left (fun a m -> a + m.recovered_trials) 0 models in
  (* The two counts Health's recovery-rate rule reads, published once
     from the campaign totals. *)
  Obs.incr ~by:total_faulted "chaos_faulted_total";
  Obs.incr ~by:total_recovered "chaos_recovered_total";
  {
    config_seed = cfg.seed;
    models;
    total_faulted;
    total_recovered;
    overall_recovery_rate =
      (if total_faulted = 0 then 1.0
       else float_of_int total_recovered /. float_of_int total_faulted);
    recovery = Recovery.merge (List.map (fun (m : model_summary) -> m.recovery) models);
  }

let json_kv_counts kvs =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) kvs)

let trial_to_json t =
  Obs.Json.Obj
    [
      ("trial", Obs.Json.Int t.trial_index);
      ("injected", Obs.Json.Int t.injected);
      ("kinds", json_kv_counts t.kinds);
      ("completed", Obs.Json.Bool t.completed);
      ("recovered", Obs.Json.Bool t.recovered);
      ( "max_abs_delta",
        if Float.is_nan t.max_abs_delta then Obs.Json.Null
        else Obs.Json.Float t.max_abs_delta );
      ( "error",
        match t.error with None -> Obs.Json.Null | Some e -> Obs.Json.String e );
      ("retries", Obs.Json.Int t.retries);
      ("panic_refreshes", Obs.Json.Int t.panic_refreshes);
      ("recovery", Recovery.accounting_json t.recovery);
    ]

let model_to_json m =
  Obs.Json.Obj
    [
      ("model", Obs.Json.String m.model);
      ("compile_manager", Obs.Json.String m.compile_manager);
      ("tolerance", Obs.Json.Float m.tolerance);
      ("trials_run", Obs.Json.Int m.trials_run);
      ("faulted_trials", Obs.Json.Int m.faulted_trials);
      ("injected_faults", Obs.Json.Int m.injected_faults);
      ("completed_trials", Obs.Json.Int m.completed_trials);
      ("recovered_trials", Obs.Json.Int m.recovered_trials);
      ("clean_identical", Obs.Json.Bool m.clean_identical);
      ("recovery_rate", Obs.Json.Float m.recovery_rate);
      ("faults_by_kind", json_kv_counts m.faults_by_kind);
      ("recovery", Recovery.accounting_json m.recovery);
      ("total_retries", Obs.Json.Int m.total_retries);
      ("total_panic_refreshes", Obs.Json.Int m.total_panic_refreshes);
      ( "fault_targets",
        Obs.Json.List
          (List.map
             (fun (n, r) ->
               Obs.Json.Obj
                 [ ("node", Obs.Json.Int n); ("ratio", Obs.Json.Float r) ])
             m.fault_targets) );
      ("trials", Obs.Json.List (List.map trial_to_json m.trials));
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("seed", Obs.Json.String (Int64.to_string r.config_seed));
      ("models", Obs.Json.List (List.map model_to_json r.models));
      ("total_faulted", Obs.Json.Int r.total_faulted);
      ("total_recovered", Obs.Json.Int r.total_recovered);
      ("overall_recovery_rate", Obs.Json.Float r.overall_recovery_rate);
      ("recovery", Recovery.accounting_json r.recovery);
    ]
