(* Slot-batched serving: batcher policies, scheduler invariants, SLO rule. *)
open Test_util

let prm = Ckks.Params.default

(* One plan cache for the whole suite: every campaign compiles the same
   tiny model, so all but the first hit the cache. *)
let cache = Resbm.Plan_cache.create ~capacity:64 ()

let mk_request rid ?(arrival = 0.0) ?(deadline = 1e9) payload =
  { Serving.Batcher.rid; arrival_ms = arrival; deadline_ms = deadline; payload }

let run cfg = Serving.Scheduler.run ~cache cfg

let base_config =
  {
    Serving.Scheduler.default with
    Serving.Scheduler.model = "tiny";
    l_max = 9;
    dim = 16;
    max_batch = 4;
  }

(* --- batcher ----------------------------------------------------------- *)

let batcher_capacity () =
  let slots = Ckks.Params.slot_count prm in
  checki "cap bounded by max_batch" 4 (Serving.Batcher.capacity prm ~dim:16 ~max_batch:4);
  checki "cap bounded by slots" (slots / 16)
    (Serving.Batcher.capacity prm ~dim:16 ~max_batch:max_int);
  checki "cap floored at one" 1 (Serving.Batcher.capacity prm ~dim:(2 * slots) ~max_batch:4)

let batcher_pack_roundtrip () =
  let dim = 4 in
  let reqs =
    List.init 3 (fun b ->
        mk_request b (Array.init dim (fun i -> float_of_int ((b * dim) + i) +. 0.5)))
  in
  let packed = Serving.Batcher.pack ~dim ~slots:16 reqs in
  checki "padded to the full width" 16 (Array.length packed);
  check_float "block 1 slot 2 lands at offset 6" 6.5 packed.(6);
  check_float "tail padding is zero" 0.0 packed.(15);
  let ct =
    Ckks.Ciphertext.make ~slots:packed ~scale_bits:56 ~level:2 ~size:2 ~err:1e-12
  in
  let blocks = Serving.Batcher.unpack ~dim ~count:3 ct in
  checki "one block per request" 3 (List.length blocks);
  List.iteri
    (fun b block ->
      let r = List.nth reqs b in
      checkb "unpack returns the packed payload" true (block = r.Serving.Batcher.payload))
    blocks;
  (match Serving.Batcher.pack ~dim ~slots:8 reqs with
  | _ -> Alcotest.fail "expected overflow rejection"
  | exception Invalid_argument _ -> ())

let batcher_decide_policies () =
  let t = Serving.Batcher.create ~capacity:4 ~max_wait_ms:10.0 in
  let payload = [| 0.0 |] in
  let req rid arrival = mk_request rid ~arrival payload in
  (match Serving.Batcher.decide t ~now:0.0 ~next_arrival:None [] with
  | Serving.Batcher.Idle -> ()
  | _ -> Alcotest.fail "empty queue should idle");
  let pending = List.init 5 (fun i -> req i (float_of_int i)) in
  (match Serving.Batcher.decide t ~now:4.0 ~next_arrival:None pending with
  | Serving.Batcher.Dispatch (members, rest) ->
      checki "full batch" 4 (List.length members);
      checki "overflow stays pending" 1 (List.length rest);
      checki "oldest first" 0 (List.hd members).Serving.Batcher.rid;
      checki "newest left behind" 4 (List.hd rest).Serving.Batcher.rid
  | _ -> Alcotest.fail "a full queue should dispatch");
  (match Serving.Batcher.decide t ~now:4.0 ~cap:2 ~next_arrival:None pending with
  | Serving.Batcher.Dispatch (members, rest) ->
      checki "degraded cap shrinks the batch" 2 (List.length members);
      checki "rest kept" 3 (List.length rest)
  | _ -> Alcotest.fail "degraded mode should still dispatch");
  (match Serving.Batcher.decide t ~now:4.0 ~cap:0 ~next_arrival:None pending with
  | Serving.Batcher.Dispatch (members, _) ->
      checki "cap clamps up to one" 1 (List.length members)
  | _ -> Alcotest.fail "cap 0 clamps to 1");
  let one = [ req 0 0.0 ] in
  (match Serving.Batcher.decide t ~now:4.0 ~next_arrival:(Some 7.0) one with
  | Serving.Batcher.Wait_until w -> check_float "wake for the next arrival" 7.0 w
  | _ -> Alcotest.fail "partial batch inside the wait window should wait");
  (match Serving.Batcher.decide t ~now:4.0 ~next_arrival:(Some 20.0) one with
  | Serving.Batcher.Wait_until w -> check_float "wake at the fill deadline" 10.0 w
  | _ -> Alcotest.fail "late arrival should not extend the wait");
  match Serving.Batcher.decide t ~now:10.0 ~next_arrival:(Some 20.0) one with
  | Serving.Batcher.Dispatch (members, rest) ->
      checki "max-wait flushes a partial batch" 1 (List.length members);
      checki "nothing left" 0 (List.length rest)
  | _ -> Alcotest.fail "oldest request past max_wait should dispatch"

(* --- scheduler determinism --------------------------------------------- *)

let det_config =
  {
    base_config with
    Serving.Scheduler.seed = 0xD17E5L;
    arrival = Serving.Scheduler.Poisson 40.0;
    duration_ms = 800.0;
    chaos_rate = 0.1;
  }

let scheduler_is_deterministic () =
  let render r = Obs.Json.to_string (Serving.Scheduler.to_json r) in
  let a = render (run det_config) in
  let b = render (run det_config) in
  check Alcotest.string "byte-identical reports across runs" a b;
  let cold = render (Serving.Scheduler.run ~cache:(Resbm.Plan_cache.create ()) det_config) in
  check Alcotest.string "byte-identical reports cold and warm" a cold

(* Byte-for-byte pin of a ResNet-20 chaos campaign whose batches roll
   back: recovery, checkpointing, batch pricing and the scheduler all
   feed this report, so any behavioural drift in them changes the
   digest. *)
let resnet20_chaos_report_is_pinned () =
  let cfg =
    {
      base_config with
      Serving.Scheduler.model = "resnet20";
      l_max = 16;
      seed = 0x5E17EL;
      arrival = Serving.Scheduler.Poisson 40.0;
      duration_ms = 1000.0;
      chaos_rate = 0.05;
    }
  in
  let r = run cfg in
  checki "in-batch rollbacks" 6
    (List.fold_left
       (fun a (b : Serving.Scheduler.batch_report) -> a + b.Serving.Scheduler.retries)
       0 r.Serving.Scheduler.batches);
  check Alcotest.string "report digest" "00f5914eb6f9c6519e3b6ed3b55cd6bf"
    (Digest.to_hex (Digest.string (Obs.Json.to_string (Serving.Scheduler.to_json r))))

(* --- one program per campaign -------------------------------------------- *)

(* The static half of a batch (validation, schedule, node prices, region
   boundaries) is prepared once per campaign and shared by every dispatch
   and retry: a ResNet-20 chaos campaign whose batches roll back and are
   re-dispatched builds one {!Fhe_ir.Interp.Program}, and a chaos
   campaign builds one per model for its reference run and all its
   trials. *)
let one_program_per_campaign () =
  let programs f =
    let p = Obs.Profile.create () in
    let r = Obs.with_profile p f in
    (r, Obs.Profile.counter p "interp.programs")
  in
  let cfg =
    {
      base_config with
      Serving.Scheduler.model = "resnet20";
      l_max = 16;
      seed = 0x5E17EL;
      arrival = Serving.Scheduler.Poisson 40.0;
      duration_ms = 1000.0;
      chaos_rate = 0.05;
      recovery = { Resilience.Recovery.default with Resilience.Recovery.max_attempts = 1 };
    }
  in
  let r, n = programs (fun () -> run cfg) in
  checkb "batches rolled back" true
    (List.exists
       (fun (b : Serving.Scheduler.batch_report) -> b.Serving.Scheduler.retries > 0)
       r.Serving.Scheduler.batches);
  checkb "batches were re-dispatched" true (r.Serving.Scheduler.batch_retries > 0);
  checki "one program per serving campaign" 1 n;
  let c, n =
    programs (fun () ->
        Resilience.Chaos.run
          {
            Resilience.Chaos.default with
            Resilience.Chaos.models = [ "tiny"; "lenet5" ];
            trials = 10;
          })
  in
  checkb "chaos trials faulted" true (c.Resilience.Chaos.total_faulted > 0);
  checki "one program per chaos model" 2 n

(* --- slot-level pin of a served batch ------------------------------------ *)

(* One packed batch as the scheduler dispatches it: eight ResNet-20
   requests of 16 slots each in one 128-slot ciphertext, the campaign's
   sharp noise prediction and a prepared program.  Returns (params,
   managed graph, region attribution, environment, noise, program). *)
let served_batch () =
  let l_max = 16 and dim = 16 in
  let prm16 = Ckks.Params.at_l_max l_max in
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let managed, report = Resbm.Driver.compile ~cache prm16 lowered.Nn.Lowering.dfg in
  let region_of = Resbm.Report.region_of_node report in
  let cap = Serving.Batcher.capacity prm16 ~dim ~max_batch:8 in
  checki "eight requests in the batch" 8 cap;
  let wide = cap * dim in
  let images = Nn.Dataset.images ~seed:0x5107L ~dim ~count:cap () in
  let consts = Nn.Lowering.resolver lowered ~dim:wide in
  let env =
    {
      Fhe_ir.Interp.inputs =
        [
          ( lowered.Nn.Lowering.input_name,
            Serving.Batcher.pack ~dim ~slots:wide
              (List.init cap (fun rid -> mk_request rid images.(rid))) );
        ];
      consts;
    }
  in
  let noise =
    Fhe_ir.Noise_check.analyse ~const_magnitude:(Nn.Lowering.const_magnitude consts) prm16
      managed
  in
  let program = Fhe_ir.Interp.Program.make ~region_of prm16 managed in
  (prm16, managed, region_of, env, noise, program)

(* The served batch slot for slot, under a fault plan drawn from the
   scheduler's mix ({!Resilience.Chaos.trial_plan} at rate 0.05, budget
   2).  The digest was taken before serving shared one program per
   campaign, with [Recovery.run] on the same inputs; the one-off
   [Recovery.run] must still give the same bits. *)
let served_batch_is_pinned () =
  let prm16, managed, region_of, env, noise, program = served_batch () in
  let plan =
    Resilience.Chaos.trial_plan (Ckks.Prng.create 1L) ~rate:0.05 ~budget:2 ~no_retries:false
      ~targets:[]
  in
  let supervised run =
    Ckks.Fault.with_faults (Ckks.Fault.create plan) (fun () ->
        run (Ckks.Evaluator.create ~seed:0x5E1L prm16))
  in
  let result, stats =
    supervised (fun ev -> Resilience.Recovery.run_program ~noise program ev env)
  in
  checki "injected" 2 stats.Resilience.Recovery.injected_faults;
  checki "retries" 2 stats.Resilience.Recovery.retries;
  checki "panic refreshes" 0 stats.Resilience.Recovery.panic_refreshes;
  checkb "outputs finite" true (slots_finite result.Fhe_ir.Interp.outputs);
  check Alcotest.string "output slot digest" "ec2326a6626278fcb026fd14b2c68b66"
    (slots_digest result.Fhe_ir.Interp.outputs);
  let one_off, stats' =
    supervised (fun ev -> Resilience.Recovery.run ~region_of ~noise ev managed env)
  in
  checki "one-off run: same retries" 2 stats'.Resilience.Recovery.retries;
  check Alcotest.string "one-off run: same bits" (slots_digest result.Fhe_ir.Interp.outputs)
    (slots_digest one_off.Fhe_ir.Interp.outputs)

(* Recovery validates each value once: on the fault-free served batch,
   [recovery.validations] counts the 1313 values the boundaries see new.
   Validating every live ciphertext at every boundary, as recovery did
   before and the oracle still does, makes 4932 checks for the same
   output bits and stats. *)
let served_batch_validates_each_value_once () =
  let prm16, _, _, env, noise, program = served_batch () in
  let prof = Obs.Profile.create () in
  let result, stats =
    Obs.with_profile prof (fun () ->
        Resilience.Recovery.run_program ~noise program
          (Ckks.Evaluator.create ~seed:0x5E1L prm16)
          env)
  in
  checki "validations" 1313 (Obs.Profile.counter prof "recovery.validations");
  let all_result, all_stats, all =
    recovery_oracle ~noise program (Ckks.Evaluator.create ~seed:0x5E1L prm16) env
  in
  checki "every live value at every boundary" 4932 all;
  check Alcotest.string "same output bits" (slots_digest all_result.Fhe_ir.Interp.outputs)
    (slots_digest result.Fhe_ir.Interp.outputs);
  checkb "same stats" true (compare stats all_stats = 0)

(* --- batch pricing ------------------------------------------------------ *)

(* A fault-free run of [model] at [l_max] on [dim]-slot inputs, and the
   static price of its execution order. *)
let ran_and_priced model ~l_max ~dim =
  let prm = Ckks.Params.at_l_max l_max in
  let lowered = Nn.Lowering.lower model in
  let managed, _ = Resbm.Driver.compile ~cache prm lowered.Nn.Lowering.dfg in
  let env =
    {
      Fhe_ir.Interp.inputs =
        [ (lowered.Nn.Lowering.input_name, (Nn.Dataset.images ~seed:3L ~dim ~count:1 ()).(0)) ];
      consts = Nn.Lowering.resolver lowered ~dim;
    }
  in
  let ran =
    (Fhe_ir.Interp.run (Ckks.Evaluator.create ~seed:3L prm) managed env).Fhe_ir.Interp.latency_ms
  in
  let program = Fhe_ir.Interp.Program.make prm managed in
  let priced =
    Fhe_ir.Interp.Program.prefix_ms program
      (Array.length (Fhe_ir.Interp.Program.order program))
  in
  (ran, priced)

(* The scheduler prices a batch statically: the cost of the execution
   order must equal, bit for bit, the latency a fault-free run
   accumulates. *)
let static_batch_price_is_bit_exact () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (model, l_max) ->
      let ran, priced = ran_and_priced model ~l_max ~dim:16 in
      check Alcotest.int64
        (model.Nn.Model.name ^ ": priced = run latency, bit for bit")
        (bits ran) (bits priced))
    [ (Nn.Model.tiny, 9); (Nn.Model.lenet5, 9); (Nn.Model.resnet20, 16) ];
  let ran, _ = ran_and_priced Nn.Model.tiny ~l_max:9 ~dim:(4 * 16) in
  check Alcotest.int64 "scheduler estimate = run latency" (bits ran)
    (bits (run base_config).Serving.Scheduler.est_batch_ms)

(* --- conservation: every arrival terminates exactly once ---------------- *)

let check_conservation (r : Serving.Scheduler.report) =
  checki "every arrival reported once" r.Serving.Scheduler.arrivals
    (List.length r.Serving.Scheduler.requests);
  checki "completed + failed + shed = arrivals" r.Serving.Scheduler.arrivals
    (r.Serving.Scheduler.completed + r.Serving.Scheduler.failed + r.Serving.Scheduler.shed);
  let late_sheds =
    match List.assoc_opt "retry_wont_fit" r.Serving.Scheduler.shed_by_reason with
    | Some n -> n
    | None -> 0
  in
  checki "admitted = completed + failed + retry_wont_fit sheds"
    r.Serving.Scheduler.admitted
    (r.Serving.Scheduler.completed + r.Serving.Scheduler.failed + late_sheds);
  checki "shed reasons sum to shed" r.Serving.Scheduler.shed
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Serving.Scheduler.shed_by_reason);
  checki "failure causes sum to failed" r.Serving.Scheduler.failed
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Serving.Scheduler.failed_by_cause);
  List.iteri
    (fun i (req : Serving.Scheduler.request_report) ->
      checki "request ids are dense and ordered" i req.Serving.Scheduler.rid)
    r.Serving.Scheduler.requests

let conservation_under_random_load =
  qcheck ~count:8 "shed + completed + failed = arrivals for random campaigns"
    QCheck2.Gen.(triple (int_bound 0xFFFF) (float_range 5.0 120.0) (float_range 0.0 0.15))
    (fun (seed, rate, chaos) ->
      let cfg =
        {
          base_config with
          Serving.Scheduler.seed = Int64.of_int (seed lor 1);
          arrival = Serving.Scheduler.Poisson rate;
          duration_ms = 700.0;
          chaos_rate = chaos;
        }
      in
      check_conservation (run cfg);
      true)

(* --- deadline vs retry budget ------------------------------------------ *)

(* Two simultaneous arrivals form one full batch; chaos with in-batch
   recovery disabled fails the dispatch, and the SLO (1.5x one clean
   execution) cannot fit the re-run, so both members must be shed as
   retry_wont_fit instead of being retried past their deadline. *)
let retry_that_cannot_fit_is_shed () =
  let replay = Serving.Scheduler.Replay [ 0.0; 1.0 ] in
  let probe =
    {
      base_config with
      Serving.Scheduler.seed = 0xFEEDL;
      arrival = replay;
      duration_ms = 10.0;
      max_batch = 2;
    }
  in
  let est = (run probe).Serving.Scheduler.est_batch_ms in
  checkb "the batch was priced" true (est > 0.0);
  let cfg =
    {
      probe with
      Serving.Scheduler.slo_ms = 1.5 *. est;
      chaos_rate = 0.9;
      recovery =
        { Resilience.Recovery.default with Resilience.Recovery.max_attempts = 0 };
    }
  in
  let r = run cfg in
  check_conservation r;
  checki "both arrivals admitted" 2 r.Serving.Scheduler.admitted;
  checki "one dispatch, no re-dispatch past the deadline" 1
    r.Serving.Scheduler.batches_run;
  checki "nothing completed" 0 r.Serving.Scheduler.completed;
  (match List.assoc_opt "retry_wont_fit" r.Serving.Scheduler.shed_by_reason with
  | Some n -> checki "both members shed immediately" 2 n
  | None -> Alcotest.fail "expected retry_wont_fit sheds");
  List.iter
    (fun (req : Serving.Scheduler.request_report) ->
      checki "each shed request rode exactly one dispatch" 1
        req.Serving.Scheduler.attempts;
      match req.Serving.Scheduler.outcome with
      | Serving.Scheduler.Shed reason ->
          check Alcotest.string "reason" "retry_wont_fit" reason
      | _ -> Alcotest.fail "expected a shed outcome")
    r.Serving.Scheduler.requests

let completions_respect_the_slo () =
  let r = run det_config in
  checkb "campaign completed some requests" true (r.Serving.Scheduler.completed > 0);
  List.iter
    (fun (req : Serving.Scheduler.request_report) ->
      match (req.Serving.Scheduler.outcome, req.Serving.Scheduler.service_ms) with
      | Serving.Scheduler.Completed, Some s ->
          checkb "completed inside the SLO" true (s <= r.Serving.Scheduler.slo_ms +. 1e-9)
      | Serving.Scheduler.Completed, None ->
          Alcotest.fail "completed request without a service latency"
      | _ -> ())
    r.Serving.Scheduler.requests

(* --- circuit breaker ------------------------------------------------------ *)

(* Every dispatch fails (chaos at 0.9 with in-batch recovery off), so each
   batch is bad: six bad batches degrade the breaker to half batches, six
   more open it, arrivals during the 2 * SLO cooldown are shed as
   breaker_open (requests already queued still drain), and after it the
   breaker admits again in Degraded — half-size batches formed past the
   reopening time. *)
let breaker_opens_and_cools_down () =
  let probe = { base_config with Serving.Scheduler.seed = 0xB4EA7L } in
  let est = (run probe).Serving.Scheduler.est_batch_ms in
  let arrivals = List.init 120 (fun i -> float_of_int i *. est /. 4.0) in
  let cfg =
    {
      probe with
      Serving.Scheduler.arrival = Serving.Scheduler.Replay arrivals;
      duration_ms = 30.0 *. est;
      chaos_rate = 0.9;
      recovery =
        { Resilience.Recovery.default with Resilience.Recovery.max_attempts = 0 };
    }
  in
  let sink = Obs.Log.create () in
  let r = Obs.with_log sink (fun () -> run cfg) in
  check_conservation r;
  let reopens =
    List.filter_map
      (fun (rc : Obs.Log.record) ->
        match List.assoc_opt "until_ms" rc.Obs.Log.fields with
        | Some (Obs.Json.Float t) when rc.Obs.Log.event = "serve.breaker.open" -> Some t
        | _ -> None)
      (Obs.Log.records sink)
  in
  checki "every opening logged" r.Serving.Scheduler.breaker_opens (List.length reopens);
  checkb "the breaker opened" true (r.Serving.Scheduler.breaker_opens >= 1);
  let cap = r.Serving.Scheduler.slot_capacity in
  let batches = r.Serving.Scheduler.batches in
  checkb "nothing succeeded" true
    (List.for_all
       (fun (b : Serving.Scheduler.batch_report) -> not b.Serving.Scheduler.ok)
       batches);
  let first_until = List.hd reopens in
  let cooldown = 2.0 *. r.Serving.Scheduler.slo_ms in
  let formed_before t =
    List.filter
      (fun (b : Serving.Scheduler.batch_report) -> b.Serving.Scheduler.formed_ms < t)
      batches
  in
  let after =
    List.filter
      (fun (b : Serving.Scheduler.batch_report) ->
        b.Serving.Scheduler.formed_ms >= first_until)
      batches
  in
  checki "Closed: the first batch is full" cap (List.hd batches).Serving.Scheduler.size;
  checkb "Degraded: half batches before the breaker opened" true
    (List.exists
       (fun (b : Serving.Scheduler.batch_report) -> b.Serving.Scheduler.size = cap / 2)
       (formed_before (first_until -. cooldown)));
  checkb "Degraded again after the cooldown: half batches" true
    (after <> []
    && List.for_all
         (fun (b : Serving.Scheduler.batch_report) -> b.Serving.Scheduler.size <= cap / 2)
         after);
  let open_sheds =
    List.filter
      (fun (q : Serving.Scheduler.request_report) ->
        q.Serving.Scheduler.outcome = Serving.Scheduler.Shed "breaker_open")
      r.Serving.Scheduler.requests
  in
  checkb "arrivals shed while open" true (open_sheds <> []);
  checki "breaker_open sheds tallied" (List.length open_sheds)
    (List.assoc "breaker_open" r.Serving.Scheduler.shed_by_reason);
  checkb "no arrival shed as breaker_open after the last reopening" true
    (List.for_all
       (fun (q : Serving.Scheduler.request_report) ->
         q.Serving.Scheduler.arrival_ms < List.nth reopens (List.length reopens - 1))
       open_sheds)

(* --- per-request recovery accounting ------------------------------------ *)

let recovery_config =
  {
    base_config with
    Serving.Scheduler.seed = 0xACC7L;
    arrival = Serving.Scheduler.Poisson 40.0;
    duration_ms = 1200.0;
    chaos_rate = 0.25;
  }

let recovery_sums_per_request () =
  let r = run recovery_config in
  check_conservation r;
  let batch_total =
    List.fold_left
      (fun acc (b : Serving.Scheduler.batch_report) ->
        List.fold_left
          (fun a (_, v) -> a +. v)
          acc b.Serving.Scheduler.recovery.Resilience.Recovery.recovery_ms_by_kind)
      0.0 r.Serving.Scheduler.batches
  in
  let request_total =
    List.fold_left
      (fun acc (req : Serving.Scheduler.request_report) ->
        acc +. req.Serving.Scheduler.recovery_ms)
      0.0 r.Serving.Scheduler.requests
  in
  checkb "chaos actually exercised recovery" true (batch_total > 0.0);
  check_float ~eps:1e-6 "per-request recovery sums to the batch totals" batch_total
    request_total;
  let report_total =
    List.fold_left
      (fun a (_, v) -> a +. v)
      0.0 r.Serving.Scheduler.recovery.Resilience.Recovery.recovery_ms_by_kind
  in
  check_float ~eps:1e-6 "campaign merge preserves the total" batch_total report_total

(* --- profile counters + health ------------------------------------------- *)

let campaign_feeds_metrics () =
  let p = Obs.Profile.create () in
  let r = Obs.with_profile p (fun () -> run det_config) in
  checki "admissions counted" r.Serving.Scheduler.admitted
    (Obs.Profile.counter p "serve_admitted_total");
  checki "completions counted" r.Serving.Scheduler.completed
    (Obs.Profile.counter p "serve_completed_total");
  let plain = run det_config in
  check Alcotest.string "report is independent of instrumentation"
    (Obs.Json.to_string (Serving.Scheduler.to_json r))
    (Obs.Json.to_string (Serving.Scheduler.to_json plain))

let find_check rule (v : Obs.Health.verdict) =
  match List.find_opt (fun c -> c.Obs.Health.rule = rule) v.Obs.Health.checks with
  | Some c -> c
  | None -> Alcotest.failf "missing %s check" rule

let slo_rule_reads_serving_counters () =
  let p = Obs.Profile.create () in
  Obs.with_profile p (fun () ->
      Obs.incr ~by:10 "serve_admitted_total";
      Obs.incr ~by:8 "serve_completed_total");
  let c = find_check "slo-attainment" (Obs.Health.evaluate p) in
  checkb "applicable once requests were admitted" true c.Obs.Health.applicable;
  check_float "attainment measured" 0.8 c.Obs.Health.value;
  checkb "0.8 fails the 0.95 floor" true (c.Obs.Health.severity = Obs.Health.Fail);
  check_float "fixed floor" 0.95 c.Obs.Health.threshold;
  (* 19/20 sits exactly on the floor and passes *)
  Obs.Profile.incr ~by:10 p "serve_admitted_total";
  Obs.Profile.incr ~by:11 p "serve_completed_total";
  let c = find_check "slo-attainment" (Obs.Health.evaluate p) in
  checkb "attainment on the floor passes" true (c.Obs.Health.severity = Obs.Health.Pass);
  let idle = find_check "slo-attainment" (Obs.Health.evaluate (Obs.Profile.create ())) in
  checkb "vacuous with no admissions" false idle.Obs.Health.applicable

let suite =
  [
    case "batcher capacity respects slots and max_batch" batcher_capacity;
    case "pack/unpack round-trips block payloads" batcher_pack_roundtrip;
    case "batch formation policy: full, degraded, max-wait" batcher_decide_policies;
    case "campaign reports are byte-deterministic (runs and cache)"
      scheduler_is_deterministic;
    case "pinned ResNet-20 chaos campaign report (rolls back)"
      resnet20_chaos_report_is_pinned;
    case "one program per serving campaign and per chaos model" one_program_per_campaign;
    case "served ResNet-20 batch: output slots pinned" served_batch_is_pinned;
    case "served ResNet-20 batch: each value validated once" served_batch_validates_each_value_once;
    case "static batch price equals the run latency, bit for bit"
      static_batch_price_is_bit_exact;
    conservation_under_random_load;
    case "a retry that cannot fit its deadline is shed immediately"
      retry_that_cannot_fit_is_shed;
    case "completed requests finish inside the SLO" completions_respect_the_slo;
    case "circuit breaker: degrade, open, shed, cool down" breaker_opens_and_cools_down;
    case "per-request recovery latency sums to batch totals" recovery_sums_per_request;
    case "campaigns feed serve_* metrics without changing the report"
      campaign_feeds_metrics;
    case "health: slo-attainment rule" slo_rule_reads_serving_counters;
  ]
