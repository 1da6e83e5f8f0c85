(* Serving: open-loop campaigns through Serving.Scheduler on the simulated
   clock, figures recomputed from the per-request ledger (Ledger) against
   a fixed SLO and a fixed ladder of absolute rates. *)

open Common
module S = Serving.Scheduler

type spec = {
  model : Nn.Model.t;
  l_max : int;
  dim : int;
  max_batch : int;
  slo_ms : float;  (** Fixed; passed to the scheduler, never derived. *)
  chaos_rate : float;
  arrivals : int;  (** Per ledger campaign. *)
  pool : int;  (** Nominal-rate campaigns pooled into the ledger figures. *)
  host_arrivals : int;  (** Per timed campaign. *)
  nominal_rps : float;
  ladder : float list;  (** Ascending absolute rates; holds [nominal_rps]. *)
}

(* ResNet-20's plan runs one batch of up to 8 requests in 705 452 ms
   simulated, a capacity of 0.01134 req/s; the ladder spans 0.5-1.5x of
   it.  The SLO is three of those batches, pinned. *)
let chaos =
  {
    model = Nn.Model.resnet20;
    l_max = 16;
    dim = 16;
    max_batch = 8;
    slo_ms = 2_116_355.0;
    chaos_rate = 0.02;
    arrivals = 96;
    pool = 4;
    host_arrivals = 32;
    nominal_rps = 0.0085;
    ladder = [ 0.0057; 0.0085; 0.0113; 0.0142; 0.0170 ];
  }

(* The small fault-free campaign the compile workloads carry, so that
   every workload reports every serving figure: the tiny model, one batch
   of 8 in 4 150 ms simulated, the same 0.5-1.5x ladder shape.  Its 16
   pooled campaigns sometimes shed at 0.75x, so its nominal rate is
   0.5x. *)
let tiny_batch_ms = 4_150.4

let canary =
  let cap = 8.0 /. (tiny_batch_ms /. 1000.0) in
  {
    model = Nn.Model.tiny;
    l_max = 16;
    dim = 16;
    max_batch = 8;
    slo_ms = 3.0 *. tiny_batch_ms;
    chaos_rate = 0.0;
    arrivals = 96;
    pool = 16;
    host_arrivals = 96;
    nominal_rps = 0.5 *. cap;
    ladder = List.map (fun x -> x *. cap) [ 0.5; 0.75; 1.0; 1.25; 1.5 ];
  }

let params spec =
  Ckks.Params.with_l_max
    { Ckks.Params.default with Ckks.Params.input_level = spec.l_max }
    spec.l_max

(* Campaign [campaign] of benchmark seed [seed] at [rate]: [count] Poisson
   arrivals conditioned on their number (uniform over the window that
   [count] arrivals span at [rate]).  The arrival pattern depends on the
   campaign, not on the rate, so the rungs of the ladder replay one
   pattern at different speeds. *)
let config spec ~seed ~campaign ~rate ~count =
  let rng = Ckks.Prng.create (mix seed (100 + campaign)) in
  let units = List.init count (fun _ -> Ckks.Prng.float rng) in
  let window_ms = float_of_int count /. rate *. 1000.0 in
  {
    S.default with
    S.seed = mix seed (200 + campaign);
    model = spec.model.Nn.Model.name;
    l_max = spec.l_max;
    dim = spec.dim;
    arrival = S.Replay (List.map (fun u -> u *. window_ms) units);
    duration_ms = window_ms;
    slo_ms = spec.slo_ms;
    max_batch = spec.max_batch;
    chaos_rate = spec.chaos_rate;
  }

let rows (r : S.report) =
  List.map
    (fun (q : S.request_report) ->
      {
        Perfbench.Ledger.arrival_ms = q.S.arrival_ms;
        completion_ms = q.S.completion_ms;
        completed = q.S.outcome = S.Completed;
      })
    r.S.requests

let conserved ~count (r : S.report) =
  r.S.arrivals = count
  && List.length r.S.requests = count
  && r.S.completed + r.S.failed + r.S.shed = r.S.arrivals

let shed_count reason (r : S.report) =
  Option.value ~default:0 (List.assoc_opt reason r.S.shed_by_reason)

(* --- Per-run state ----------------------------------------------------------- *)

type state = {
  spec : spec;
  seed : int;
  t : tally;
  s : samples;
  mutable cache : Resbm.Plan_cache.t;
  mutable first_json : string option;  (** The timed campaign's first report. *)
  mutable identical : bool;
  mutable plan_key : Pipeline.key option;  (** The first pass's served plan. *)
  mutable plan_stable : bool;
}

let create spec ~seed t s =
  {
    spec;
    seed;
    t;
    s;
    cache = Resbm.Plan_cache.create ();
    first_json = None;
    identical = true;
    plan_key = None;
    plan_stable = true;
  }

(* The timed campaign: a nominal-rate run on the warm cache, sampled per
   executed batch ("campaign") and whole ("campaign_total").  Its report
   must serialise byte-for-byte the same every time. *)
let timed_campaign ?(w = Spans.untraced) st =
  let cfg =
    config st.spec ~seed:st.seed ~campaign:99 ~rate:st.spec.nominal_rps
      ~count:st.spec.host_arrivals
  in
  let probe = probe_s () in
  let r, dt =
    time (fun () -> w.Spans.wrap "serve.campaign" (fun () -> S.run ~jobs:1 ~cache:st.cache cfg))
  in
  record st.s "campaign" ~probe (dt /. float_of_int (max 1 r.S.batches_run));
  record st.s "campaign_total" ~probe dt;
  let json = Obs.Json.to_string (S.to_json r) in
  match st.first_json with
  | None -> st.first_json <- Some json
  | Some j -> if j <> json then st.identical <- false

(* Set-up of one serve-chaos pass: lower the model, a fresh plan cache and
   the cold compile that fills it. *)
let setup_pass st =
  let probe = probe_s () in
  let (), setup_s =
    time (fun () ->
        let lowered = Nn.Lowering.lower st.spec.model in
        st.cache <- Resbm.Plan_cache.create ();
        let (_, report), compile_s =
          time (fun () ->
              Resbm.Driver.compile_robust ~jobs:1 ~cache:st.cache (params st.spec)
                lowered.Nn.Lowering.dfg)
        in
        record st.s "compile" ~probe compile_s;
        let key = Pipeline.report_key report in
        match st.plan_key with
        | None -> st.plan_key <- Some key
        | Some k -> if k <> key then st.plan_stable <- false)
  in
  record st.s "setup" ~probe setup_s

(* --- The ledger figures (once per run; deterministic in the seed) ------------ *)

type ledger = {
  nominal : Perfbench.Ledger.summary;
  reports : S.report list;  (** The pooled nominal campaigns. *)
  rungs : Perfbench.Ledger.rung list;
  max_rate : float;
}

let ledger st =
  let spec = st.spec in
  let run ~campaign ~rate =
    let cfg = config spec ~seed:st.seed ~campaign ~rate ~count:spec.arrivals in
    let r = S.run ~jobs:1 ~cache:st.cache cfg in
    check st.t (conserved ~count:spec.arrivals r)
      (Printf.sprintf "campaign %d at %g req/s: completed + failed + shed <> arrivals"
         campaign rate);
    r
  in
  let summary r = Perfbench.Ledger.summarise ~slo_ms:spec.slo_ms (rows r) in
  let pooled rate = List.init spec.pool (fun campaign -> run ~campaign ~rate) in
  let reports = pooled spec.nominal_rps in
  let nominal = Perfbench.Ledger.pool (List.map summary reports) in
  (* Every nominal arrival is one operation: good, or a miss. *)
  List.iter
    (fun r ->
      List.iter
        (fun (q : S.request_report) ->
          check ~wrong:false st.t (q.S.outcome = S.Completed)
            (Printf.sprintf "nominal request %d: %s" q.S.rid (S.outcome_name q.S.outcome)))
        r.S.requests)
    reports;
  (* Each rung pools the same campaigns as the nominal rate, replayed at
     its rate.  Only the rungs that decide the maximum run: upwards from
     the nominal rate until one fails, downwards only when the nominal
     rate itself fails. *)
  let threshold = 0.99 in
  let rung rate rs =
    {
      Perfbench.Ledger.rate_rps = rate;
      rung_attainment = Perfbench.Ledger.attainment (Perfbench.Ledger.pool (List.map summary rs));
    }
  in
  let nominal_rung = rung spec.nominal_rps reports in
  let ok (r : Perfbench.Ledger.rung) = r.Perfbench.Ledger.rung_attainment >= threshold in
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let r = rung rate (pooled rate) in
        if ok r then climb (r :: acc) rest else List.rev (r :: acc)
  in
  let above = List.filter (fun x -> x > spec.nominal_rps) spec.ladder in
  let below = List.filter (fun x -> x < spec.nominal_rps) spec.ladder in
  let rungs =
    if ok nominal_rung then nominal_rung :: climb [] above
    else List.map (fun rate -> rung rate (pooled rate)) below @ [ nominal_rung ]
  in
  { nominal; reports; rungs; max_rate = Perfbench.Ledger.max_rate ~threshold rungs }

let ledger_metrics st l =
  let module L = Perfbench.Ledger in
  let slo_ms = st.spec.slo_ms in
  let tail_p, tail_v, tail_n =
    match L.tail l.nominal with Some x -> x | None -> (Float.nan, Float.nan, 0)
  in
  let arrivals = l.nominal.L.arrivals in
  let note = Printf.sprintf "(%d arrivals in %d campaigns)" arrivals st.spec.pool in
  [
    metric "goodput_rps" "req/s" (L.goodput_rps l.nominal) ~note;
    metric "slo_attainment" "ratio" (L.attainment l.nominal) ~note;
    metric "service_ms.p50" "sim_ms"
      (L.miss_reading ~slo_ms (L.percentile l.nominal 0.5))
      ~note;
    metric "service_ms.tail" "sim_ms" (L.miss_reading ~slo_ms tail_v)
      ~note:(Printf.sprintf "(p%.1f of %d, 10 beyond it)" (100.0 *. tail_p) tail_n);
    metric "max_rate_rps" "req/s" l.max_rate
      ~note:
        (String.concat " "
           (List.map
              (fun (r : L.rung) ->
                Printf.sprintf "%g:%.3f" r.L.rate_rps r.L.rung_attainment)
              l.rungs));
  ]

(* Per-layer serving counts from the pooled nominal ledger. *)
let ledger_layers l =
  let reports = l.reports in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 reports) in
  let batches = List.concat_map (fun (r : S.report) -> r.S.batches) reports in
  let queue_wait =
    List.concat_map
      (fun (r : S.report) ->
        List.filter_map
          (fun (q : S.request_report) ->
            match q.S.batch with
            | Some b when q.S.outcome = S.Completed ->
                let formed =
                  (List.find (fun (x : S.batch_report) -> x.S.batch_id = b) r.S.batches)
                    .S.formed_ms
                in
                Some (formed -. q.S.arrival_ms)
            | _ -> None)
          r.S.requests)
      reports
  in
  let fill =
    match batches with
    | [] -> 0.0
    | bs ->
        List.fold_left (fun a (b : S.batch_report) -> a +. float_of_int b.S.size) 0.0 bs
        /. float_of_int (List.length bs)
  in
  let cap = match reports with r :: _ -> float_of_int r.S.slot_capacity | [] -> 1.0 in
  [
    ("serve.batches", sum (fun r -> r.S.batches_run));
    ("serve.batch_fill", fill /. cap);
    ("serve.queue_wait_ms.p50", quantile queue_wait 0.5);
    ( "serve.queue_peak",
      float_of_int
        (List.fold_left (fun a (r : S.report) -> max a r.S.queue_depth_peak) 0 reports) );
    ("serve.dispatch_retries", sum (fun r -> r.S.batch_retries));
    ( "serve.rollbacks",
      float_of_int (List.fold_left (fun a (b : S.batch_report) -> a + b.S.retries) 0 batches) );
    ( "serve.panic_refreshes",
      float_of_int
        (List.fold_left (fun a (b : S.batch_report) -> a + b.S.panic_refreshes) 0 batches) );
    ( "serve.faults_injected",
      float_of_int
        (List.fold_left (fun a (b : S.batch_report) -> a + b.S.injected_faults) 0 batches) );
  ]
  @ List.map
      (fun reason -> ("serve.shed." ^ reason, sum (shed_count reason)))
      [ "breaker_open"; "queue_full"; "predicted_miss"; "retry_wont_fit" ]

(* --- Output check of the served plan ------------------------------------------ *)

(* One fault-injected packed batch of [capacity] requests through the
   recovery supervisor, each request's block of the output compared with
   the plaintext interpreter on the same packed input.  Returns the
   precision (bits) and the faults injected, or [None] when the run was
   lost.  The traced run also times a fault-free interpreter run. *)
let packed_batch ?(w = Spans.untraced) st =
  let spec = st.spec in
  let prm = params spec in
  let lowered = Nn.Lowering.lower spec.model in
  let managed, report =
    Resbm.Driver.compile_robust ~jobs:1 ~cache:st.cache prm lowered.Nn.Lowering.dfg
  in
  let cap = Serving.Batcher.capacity prm ~dim:spec.dim ~max_batch:spec.max_batch in
  let wide = cap * spec.dim in
  let images = Nn.Dataset.images ~seed:(mix st.seed 300) ~dim:spec.dim ~count:cap () in
  let requests =
    List.init cap (fun rid ->
        { Serving.Batcher.rid; arrival_ms = 0.0; deadline_ms = 0.0; payload = images.(rid) })
  in
  let packed = Serving.Batcher.pack ~dim:spec.dim ~slots:wide requests in
  let consts = Nn.Lowering.resolver lowered ~dim:wide in
  let env = { Fhe_ir.Interp.inputs = [ (lowered.Nn.Lowering.input_name, packed) ]; consts } in
  let const_magnitude name =
    Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 (consts name)
  in
  let noise =
    w.Spans.wrap "noise" (fun () -> Fhe_ir.Noise_check.analyse ~const_magnitude prm managed)
  in
  let attr = report.Resbm.Report.region_of in
  let region_of id = if id >= 0 && id < Array.length attr then attr.(id) else -1 in
  ignore
    (w.Spans.wrap "interp" (fun () ->
         Fhe_ir.Interp.run (Ckks.Evaluator.create ~seed:(mix st.seed 301) prm) managed env));
  (* The scheduler's per-dispatch fault mix at the campaign's chaos rate,
     less its scale-drift rule. *)
  let rate = spec.chaos_rate in
  let fault_rng = Ckks.Prng.create (mix st.seed 302) in
  let u lo hi = Ckks.Prng.uniform fault_rng ~lo ~hi in
  let injector =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = Ckks.Prng.int64 fault_rng;
        rules =
          [
            Ckks.Fault.rule Ckks.Fault.Transient ~prob:(rate *. u 0.5 1.5) ~mag:0.0;
            Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:(rate *. u 0.25 1.0)
              ~mag:(u 18.0 28.0);
            Ckks.Fault.rule Ckks.Fault.Slot_corrupt ~prob:(rate *. u 0.25 1.0)
              ~mag:(u (-4.0) (-1.0));
          ];
        budget = 2;
      }
  in
  let ev = Ckks.Evaluator.create ~seed:(mix st.seed 303) prm in
  match
    w.Spans.wrap "recovery" (fun () ->
        Ckks.Fault.with_faults injector (fun () ->
            Resilience.Recovery.run ~region_of ~noise ev managed env))
  with
  | exception Ckks.Evaluator.Fhe_error e ->
      Printf.printf "packed batch lost: %s\n" (Ckks.Evaluator.error_message e);
      None
  | result, _stats ->
      let plain = Nn.Inference.run_plain lowered ~dim:wide packed in
      let classes = spec.model.Nn.Model.classes in
      let bits =
        match result.Fhe_ir.Interp.outputs with
        | [] -> Float.neg_infinity
        | out :: _ ->
            List.fold_left Float.min Float.infinity
              (List.mapi
                 (fun b block ->
                   Pipeline.precision_bits ~n:classes ~want_off:(b * spec.dim) block plain)
                 (Serving.Batcher.unpack ~dim:spec.dim ~count:cap out))
      in
      Some (bits, Ckks.Fault.injected injector)

(* --- Untraced run: the end-to-end figures of serve-chaos ------------------------ *)

let run ~seed ~seconds =
  let t = tally () and s = samples () in
  let st = create chaos ~seed t s in
  let start = now () in
  let pass () =
    settle ();
    setup_pass st;
    settle ();
    timed_campaign st
  in
  pass ();
  let heap = peak_heap_mb () in
  let l = ledger st in
  let packed = packed_batch st in
  while now () -. start < seconds do
    pass ()
  done;
  (match packed with
  | None -> check t false "packed batch: recovery lost the batch"
  | Some (bits, injected) ->
      check t (bits >= Pipeline.precision_floor_bits)
        (Printf.sprintf "packed batch (%d faults injected): %.2f bits, below the %.0f-bit floor"
           injected bits Pipeline.precision_floor_bits));
  check t st.identical "timed campaign report differs between runs";
  check t st.plan_stable "served plan differs between passes";
  let passes = count s "setup" in
  let per_pass = Printf.sprintf "(median of %d passes)" passes in
  Printf.printf "raw campaign ms/batch: median %.3f, fastest %.3f\n"
    (1000.0 *. raw_quantile s "campaign" 0.5)
    (1000.0 *. raw_quantile s "campaign" 0.0);
  let module L = Perfbench.Ledger in
  ( t,
    [
      metric "setup_s" "s" (host s "setup") ~note:per_pass;
      metric "compile_s" "s" (host s "compile") ~note:per_pass;
      metric "serve_host_ms" "ms/batch"
        (1000.0 *. host s "campaign")
        ~note:
          (Printf.sprintf "(%d-arrival campaign, median of %d)" chaos.host_arrivals
             (count s "campaign"));
      metric "sim_latency_ms" "sim_ms" (Option.get st.plan_key).Pipeline.k_latency;
      metric "precision_bits" "bits"
        (match packed with Some (b, _) -> b | None -> Float.nan)
        ~note:
          (match packed with
          | Some (_, injected) -> Printf.sprintf "(%d faults injected)" injected
          | None -> "");
      metric "success_ratio" "ratio" (L.attainment l.nominal)
        ~note:(Printf.sprintf "(%d nominal arrivals)" l.nominal.L.arrivals);
      metric "peak_heap_mb" "MiB" heap;
    ]
    @ ledger_metrics st l )

(* --- Traced run: the per-layer ledger of serve-chaos ---------------------------- *)

(* compile_robust's first tier, which plans the served model. *)
let serving_manager =
  { Resbm.Variants.name = "resbm"; config = Resbm.Btsmgr.resbm_config; ms_opt = false }

let traced_run ~seed ~seconds =
  let t = tally () and s = samples () in
  let spans = Spans.create () in
  let st = create chaos ~seed t s in
  let prm = params chaos in
  let item = chaos.model.Nn.Model.name in
  let start = now () in
  let matched = ref true and first = ref None and checked_ok = ref true in
  let pass k =
    settle ();
    let lowered = measure s "lower" (fun () -> Nn.Lowering.lower chaos.model) in
    let g = lowered.Nn.Lowering.dfg in
    let (_, report), d =
      Pipeline.compile_both spans s ~flip:(k mod 2 = 1) ~item
        ~untraced:(fun () ->
          st.cache <- Resbm.Plan_cache.create ();
          Resbm.Driver.compile_robust ~jobs:1 ~cache:st.cache prm g)
        ~traced:(fun w -> Pipeline.compile w serving_manager prm g)
    in
    if Pipeline.report_key report <> Pipeline.result_key d then matched := false;
    if !first = None then first := Some [ (item, d, g) ];
    let w = Spans.recorder spans ~item in
    let managed, report =
      w.Spans.wrap "plan_cache.warm" (fun () ->
          Resbm.Driver.compile_robust ~jobs:1 ~cache:st.cache prm g)
    in
    let certified =
      w.Spans.wrap "certify" (fun () ->
          List.for_all
            (fun (_, ds) -> not (Analysis.Diag.has_errors ds))
            (Resbm.Driver.certify_diags prm managed report))
    in
    (match packed_batch ~w st with
    | Some (bits, _) when certified && bits >= Pipeline.precision_floor_bits -> ()
    | _ -> checked_ok := false);
    settle ();
    timed_campaign ~w st
  in
  pass 0;
  let l = ledger st in
  let k = ref 1 in
  while now () -. start < seconds do
    pass !k;
    incr k
  done;
  Pipeline.check_trace t spans;
  check t !matched "served plan: decomposed pipeline differs from compile_robust";
  check t !checked_ok "served plan refuted, or packed batch lost or below the precision floor";
  check t st.identical "timed campaign report differs between runs";
  ( t,
    spans,
    [ ("lower.ms", 1000.0 *. host s "lower") ]
    @ Pipeline.compile_layers spans s (Option.get !first)
    @ List.map
        (fun l -> (l ^ ".ms", Spans.host_ms spans l))
        [ "certify"; "noise"; "interp"; "recovery" ]
    @ [
        ("serve.campaign.ms", 1000.0 *. host s "campaign_total");
        ("plan_cache.warm_ms", Spans.host_ms spans "plan_cache.warm");
        ("interp.minor_mw", Spans.first_minor_mw spans "interp");
        ("recovery.minor_mw", Spans.first_minor_mw spans "recovery");
      ]
    @ ledger_layers l )
