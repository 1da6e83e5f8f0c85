type arrival = Poisson of float | Replay of float list

type config = {
  seed : int64;
  model : string;
  l_max : int;
  dim : int;
  arrival : arrival;
  duration_ms : float;
  slo_ms : float;
  max_batch : int;
  chaos_rate : float;
  recovery : Resilience.Recovery.config;
}

let default =
  {
    seed = 0x5E17EL;
    model = "tiny";
    l_max = 9;
    dim = 16;
    arrival = Poisson 40.0;
    duration_ms = 1000.0;
    slo_ms = 0.0;
    max_batch = 4;
    chaos_rate = 0.0;
    recovery = Resilience.Recovery.default;
  }

(* The serving policy, constant (see {!default} in the interface): queue
   bound, faults per chaos dispatch, batch re-dispatches and their base
   backoff, and the breaker's window and bad-batch threshold. *)
let queue_depth = 16
let chaos_budget = 2
let max_retries = 2
let retry_backoff_ms = 5.0
let breaker_window = 6
let breaker_threshold = 0.5

type outcome = Completed | Shed of string | Failed of string

let outcome_name = function
  | Completed -> "completed"
  | Shed _ -> "shed"
  | Failed _ -> "failed"

type request_report = {
  rid : int;
  arrival_ms : float;
  deadline_ms : float;
  outcome : outcome;
  completion_ms : float option;
  service_ms : float option;
  batch : int option;
  attempts : int;
  recovery_ms : float;
}

type batch_report = {
  batch_id : int;
  formed_ms : float;
  size : int;
  attempt : int;
  members : int list;
  ok : bool;
  error : string option;
  exec_ms : float;
  injected_faults : int;
  retries : int;
  panic_refreshes : int;
  recovery : Resilience.Recovery.accounting;
}

type report = {
  config_seed : int64;
  model : string;
  slot_capacity : int;
  est_batch_ms : float;
  slo_ms : float;
  max_wait_ms : float;
  arrivals : int;
  admitted : int;
  completed : int;
  shed : int;
  failed : int;
  shed_by_reason : (string * int) list;
  failed_by_cause : (string * int) list;
  deadline_misses : int;
  goodput_rps : float;
  slo_attainment : float;
  p50_service_ms : float;
  p99_service_ms : float;
  queue_depth_peak : int;
  batches_run : int;
  batch_retries : int;
  mean_batch_fill : float;
  breaker_opens : int;
  recovery : Resilience.Recovery.accounting;
  requests : request_report list;
  batches : batch_report list;
}

(* Deterministic stream salts: each concern draws from its own SplitMix64
   stream so adding observations to one never perturbs another. *)
let arrival_salt = 0xA881DA7E5L
let payload_salt = 0x1A6E5L
let chaos_salt = 0xFA017L
let ev_salt = 0x9E3779B97F4A7C15L

(* Nearest-rank percentile over an ascending list. *)
let percentile sorted p =
  match sorted with
  | [] -> Float.nan
  | l ->
      let n = List.length l in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      List.nth l (max 0 (min (n - 1) (rank - 1)))

let run ?jobs:_ ?cache cfg =
  if cfg.dim < 1 then invalid_arg "Scheduler.run: dim below 1";
  if cfg.duration_ms < 0.0 then invalid_arg "Scheduler.run: negative duration";
  let model =
    match Nn.Model.by_name cfg.model with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Scheduler.run: unknown model %S" cfg.model)
  in
  let lowered = Nn.Lowering.lower model in
  let prm = Ckks.Params.at_l_max cfg.l_max in
  let managed, plan_report = Resbm.Driver.compile ?cache prm lowered.Nn.Lowering.dfg in
  let slot_capacity = Batcher.capacity prm ~dim:cfg.dim ~max_batch:cfg.max_batch in
  let wide = slot_capacity * cfg.dim in
  (* The lowering's resolver memoises each constant per name, so the
     noise analysis and every batch's interpreter share one payload. *)
  let consts = Nn.Lowering.resolver lowered ~dim:wide in
  (* The static half of every batch — validation, schedule, node prices,
     region boundaries — prepared once and shared by every dispatch and
     retry of the campaign. *)
  let program =
    Fhe_ir.Interp.Program.make ~region_of:(Resbm.Report.region_of_node plan_report) prm
      managed
  in
  (* Sharp static noise prediction for the recovery supervisor's boundary
     validator, as the chaos harness does, over the program's scales and
     order: no second scale pass or sort. *)
  let noise =
    Fhe_ir.Noise_check.analyse ~const_magnitude:(Nn.Lowering.const_magnitude consts)
      ~scales:(Fhe_ir.Interp.Program.info program)
      ~order:(Fhe_ir.Interp.Program.order program)
      prm managed
  in
  let ev_base = Int64.logxor cfg.seed ev_salt in
  (* The fault-free latency of one batch prices it: slot batching is
     SIMD, so a full batch costs the same simulated latency as a solo
     inference — this estimate drives admission control and the auto-SLO.
     It is the static cost of the execution order, bit for bit what a
     fault-free run would accumulate, so no reference run is needed. *)
  let est_batch_ms =
    Fhe_ir.Interp.Program.prefix_ms program
      (Array.length (Fhe_ir.Interp.Program.order program))
  in
  let slo_ms = if cfg.slo_ms > 0.0 then cfg.slo_ms else 3.0 *. est_batch_ms in
  let max_wait_ms = slo_ms /. 4.0 in
  let cooldown_ms = 2.0 *. slo_ms in
  let batcher = Batcher.create ~capacity:slot_capacity ~max_wait_ms in
  (* Arrival trace: sorted absolute times in [0, duration]. *)
  let arrival_times =
    match cfg.arrival with
    | Replay ts ->
        List.sort compare
          (List.filter (fun t -> t >= 0.0 && t <= cfg.duration_ms) ts)
    | Poisson rate ->
        if rate <= 0.0 then []
        else begin
          let rng = Ckks.Prng.create (Int64.logxor cfg.seed arrival_salt) in
          let rec gen acc t =
            let u = Ckks.Prng.float rng in
            let t = t +. (-.log (1.0 -. u) /. rate *. 1000.0) in
            if t > cfg.duration_ms then List.rev acc else gen (t :: acc) t
          in
          gen [] 0.0
        end
  in
  let n_arrivals = List.length arrival_times in
  let payloads =
    if n_arrivals = 0 then [||]
    else
      Nn.Dataset.images ~seed:(Int64.logxor cfg.seed payload_salt) ~dim:cfg.dim
        ~count:n_arrivals ()
  in
  let requests =
    Array.of_list
      (List.mapi
         (fun i t ->
           {
             Batcher.rid = i;
             arrival_ms = t;
             deadline_ms = t +. slo_ms;
             payload = payloads.(i);
           })
         arrival_times)
  in
  (* Dense per-request terminal accounting: exactly one outcome per
     admitted (indeed per arrived) request, asserted at the end. *)
  let out_outcome : outcome option array = Array.make n_arrivals None in
  let out_completion = Array.make n_arrivals Float.nan in
  let out_batch = Array.make n_arrivals (-1) in
  let out_attempts = Array.make n_arrivals 0 in
  let out_recovery = Array.make n_arrivals 0.0 in
  let chaos_rng = Ckks.Prng.create (Int64.logxor cfg.seed chaos_salt) in
  (* Circuit breaker: Closed -> Degraded (half batches) -> Open (shed
     arrivals) on a bad recent window; Open cools down to Degraded, a
     clean window closes Degraded. *)
  let breaker = ref `Closed in
  let open_until = ref 0.0 in
  let window = ref [] (* newest first; true = fault or deadline miss *) in
  let breaker_opens = ref 0 in
  let eff_cap () =
    match !breaker with `Closed -> slot_capacity | _ -> max 1 (slot_capacity / 2)
  in
  let refresh_breaker now =
    if !breaker = `Open && now >= !open_until then breaker := `Degraded
  in
  let note_breaker now bad =
    window := bad :: !window;
    if List.length !window >= breaker_window then begin
      let trimmed = List.filteri (fun i _ -> i < breaker_window) !window in
      let bads = List.length (List.filter Fun.id trimmed) in
      let rate = float_of_int bads /. float_of_int breaker_window in
      if rate >= breaker_threshold then begin
        (match !breaker with
        | `Closed -> breaker := `Degraded
        | `Degraded | `Open ->
            breaker := `Open;
            open_until := now +. cooldown_ms;
            incr breaker_opens;
            Obs.log_warn ~event:"serve.breaker.open"
              ~fields:[ ("until_ms", Obs.Json.Float !open_until) ]
              (Printf.sprintf "circuit breaker opened until %.1f ms" !open_until));
        window := []
      end
      else if !breaker = `Degraded && rate < breaker_threshold /. 2.0 then begin
        breaker := `Closed;
        window := []
      end
      else window := trimmed
    end
  in
  let now = ref 0.0 in
  let queue = ref [] (* oldest first *) in
  let pending_arrivals = ref (Array.to_list requests) in
  let qpeak = ref 0 in
  let admitted = ref 0 in
  let batch_reports = ref [] (* newest first *) in
  let next_batch_id = ref 0 in
  let shed_request (r : Batcher.request) reason =
    out_outcome.(r.Batcher.rid) <- Some (Shed reason);
    Obs.log_warn ~event:"serve.shed"
      ~fields:
        [ ("rid", Obs.Json.Int r.Batcher.rid); ("reason", Obs.Json.String reason) ]
      (Printf.sprintf "shed request %d (%s)" r.Batcher.rid reason)
  in
  let admit (r : Batcher.request) =
    refresh_breaker !now;
    if !breaker = `Open then shed_request r "breaker_open"
    else if List.length !queue >= queue_depth then shed_request r "queue_full"
    else begin
      (* Predicted completion: the queue ahead drains in ceil-ish batches
         of the current effective capacity, then this request's own batch
         runs.  Admitting a request that cannot make its deadline only
         wastes slots it would fail in. *)
      let cap = eff_cap () in
      let batches_ahead = (List.length !queue / cap) + 1 in
      let predicted = !now +. (float_of_int batches_ahead *. est_batch_ms) in
      if predicted > r.Batcher.deadline_ms then shed_request r "predicted_miss"
      else begin
        incr admitted;
        Obs.log_debug ~event:"serve.admit"
          ~fields:[ ("rid", Obs.Json.Int r.Batcher.rid) ]
          (Printf.sprintf "admitted request %d" r.Batcher.rid);
        queue := !queue @ [ r ];
        qpeak := max !qpeak (List.length !queue)
      end
    end
  in
  let rec run_batch ~attempt members =
    let bid = !next_batch_id in
    incr next_batch_id;
    let size = List.length members in
    let formed = !now in
    Obs.log_info ~event:"serve.batch.formed"
      ~fields:
        [
          ("batch", Obs.Json.Int bid);
          ("size", Obs.Json.Int size);
          ("attempt", Obs.Json.Int attempt);
        ]
      (Printf.sprintf "formed batch %d (%d requests, attempt %d)" bid size attempt);
    List.iter
      (fun (r : Batcher.request) ->
        out_batch.(r.Batcher.rid) <- bid;
        out_attempts.(r.Batcher.rid) <- out_attempts.(r.Batcher.rid) + 1)
      members;
    let wide_input = Batcher.pack ~dim:cfg.dim ~slots:wide members in
    let env =
      { Fhe_ir.Interp.inputs = [ (lowered.Nn.Lowering.input_name, wide_input) ]; consts }
    in
    (* A fresh evaluator stream per (batch, attempt): retries replay
       deterministically but not identically, and no batch's noise depends
       on how many batches ran before it. *)
    let ev_seed = Int64.logxor ev_base (Int64.of_int ((bid * 257) + attempt)) in
    let ev = Ckks.Evaluator.create ~seed:ev_seed prm in
    let exec () =
      match
        Resilience.Recovery.run_program ~config:cfg.recovery ~noise program ev env
      with
      | r -> Ok r
      | exception Ckks.Evaluator.Fhe_error e -> Error e
    in
    let outcome, injected =
      if cfg.chaos_rate > 0.0 then begin
        (* Per-dispatch fault plan: the chaos harness's default rule mix
           at the campaign's [chaos_rate]. *)
        let injector =
          Ckks.Fault.create
            (Resilience.Chaos.trial_plan chaos_rng ~rate:cfg.chaos_rate
               ~budget:chaos_budget ~no_retries:false ~targets:[])
        in
        let o = Ckks.Fault.with_faults injector exec in
        (o, Ckks.Fault.injected injector)
      end
      else (exec (), 0)
    in
    match outcome with
    | Ok (result, stats) ->
        let completion = formed +. result.Fhe_ir.Interp.latency_ms in
        now := completion;
        (* Per-request recovery attribution: the batch's recovery cost is
           split evenly (every member waited through the same rollbacks),
           with the last member absorbing the rounding residue so the
           per-request sum equals the batch total exactly. *)
        let recovery = stats.Resilience.Recovery.recovery in
        let total_rec =
          List.fold_left
            (fun a (_, v) -> a +. v)
            0.0 recovery.Resilience.Recovery.recovery_ms_by_kind
        in
        let share = total_rec /. float_of_int size in
        List.iteri
          (fun i (r : Batcher.request) ->
            let amount =
              if i = size - 1 then total_rec -. (share *. float_of_int (size - 1))
              else share
            in
            out_recovery.(r.Batcher.rid) <- out_recovery.(r.Batcher.rid) +. amount)
          members;
        let misses = ref 0 in
        List.iter
          (fun (r : Batcher.request) ->
            out_completion.(r.Batcher.rid) <- completion;
            if completion <= r.Batcher.deadline_ms then
              out_outcome.(r.Batcher.rid) <- Some Completed
            else begin
              incr misses;
              out_outcome.(r.Batcher.rid) <- Some (Failed "deadline_missed");
              Obs.log_warn ~event:"serve.deadline.missed"
                ~fields:
                  [
                    ("rid", Obs.Json.Int r.Batcher.rid);
                    ("completion_ms", Obs.Json.Float completion);
                    ("deadline_ms", Obs.Json.Float r.Batcher.deadline_ms);
                  ]
                (Printf.sprintf "request %d finished %.1f ms past its deadline"
                   r.Batcher.rid (completion -. r.Batcher.deadline_ms))
            end)
          members;
        note_breaker !now (!misses > 0);
        batch_reports :=
          {
            batch_id = bid;
            formed_ms = formed;
            size;
            attempt;
            members = List.map (fun (r : Batcher.request) -> r.Batcher.rid) members;
            ok = true;
            error = None;
            exec_ms = result.Fhe_ir.Interp.latency_ms;
            injected_faults = injected;
            retries = stats.Resilience.Recovery.retries;
            panic_refreshes = stats.Resilience.Recovery.panic_refreshes;
            recovery;
          }
          :: !batch_reports
    | Error e ->
        (* The failed attempt still occupied the pipeline for about one
           batch's worth of simulated time.  The supervisor's partial
           recovery accounting dies with the exception, so a failed
           attempt contributes zeros — the per-request recovery invariant
           is over successful batches. *)
        now := formed +. est_batch_ms;
        let cause = Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause in
        batch_reports :=
          {
            batch_id = bid;
            formed_ms = formed;
            size;
            attempt;
            members = List.map (fun (r : Batcher.request) -> r.Batcher.rid) members;
            ok = false;
            error = Some cause;
            exec_ms = est_batch_ms;
            injected_faults = injected;
            retries = 0;
            panic_refreshes = 0;
            recovery = Resilience.Recovery.no_recovery;
          }
          :: !batch_reports;
        note_breaker !now true;
        let retryable = Ckks.Evaluator.transient e || injected > 0 in
        if retryable && attempt <= max_retries then begin
          let raw = retry_backoff_ms *. (2.0 ** float_of_int (attempt - 1)) in
          let delay = Float.min raw cfg.recovery.Resilience.Recovery.max_backoff_ms in
          now := !now +. delay;
          (* Deadline-aware retry: a member whose deadline cannot fit even
             a clean re-execution is shed now rather than retried past its
             SLO. *)
          let fits, misfits =
            List.partition
              (fun (r : Batcher.request) ->
                !now +. est_batch_ms <= r.Batcher.deadline_ms)
              members
          in
          List.iter (fun r -> shed_request r "retry_wont_fit") misfits;
          if fits <> [] then run_batch ~attempt:(attempt + 1) fits
        end
        else
          List.iter
            (fun (r : Batcher.request) -> out_outcome.(r.Batcher.rid) <- Some (Failed cause))
            members
  in
  (* Discrete-event loop over the simulated clock.  Batches execute
     synchronously (arrivals during a batch are admitted when it
     completes — a single-worker pipeline); every branch strictly
     advances [now] or consumes an arrival, so the loop terminates with
     every request terminal. *)
  let continue_loop = ref true in
  while !continue_loop do
    match !pending_arrivals with
    | r :: rest when r.Batcher.arrival_ms <= !now ->
        pending_arrivals := rest;
        admit r
    | pending -> (
        match !queue with
        | [] -> (
            match pending with
            | [] -> continue_loop := false
            | r :: _ -> now := Float.max !now r.Batcher.arrival_ms)
        | q -> (
            refresh_breaker !now;
            let next_arrival =
              match pending with [] -> None | r :: _ -> Some r.Batcher.arrival_ms
            in
            match Batcher.decide batcher ~now:!now ~cap:(eff_cap ()) ~next_arrival q with
            | Batcher.Dispatch (members, rest) ->
                queue := rest;
                run_batch ~attempt:1 members
            | Batcher.Wait_until t -> now := Float.max !now t
            | Batcher.Idle -> assert false))
  done;
  let requests =
    Array.to_list
      (Array.mapi
         (fun rid (r : Batcher.request) ->
           let outcome =
             match out_outcome.(rid) with
             | Some o -> o
             | None -> assert false (* every request terminates exactly once *)
           in
           let completion =
             if Float.is_nan out_completion.(rid) then None
             else Some out_completion.(rid)
           in
           {
             rid;
             arrival_ms = r.Batcher.arrival_ms;
             deadline_ms = r.Batcher.deadline_ms;
             outcome;
             completion_ms = completion;
             service_ms = Option.map (fun c -> c -. r.Batcher.arrival_ms) completion;
             batch = (if out_batch.(rid) < 0 then None else Some out_batch.(rid));
             attempts = out_attempts.(rid);
             recovery_ms = out_recovery.(rid);
           })
         requests)
  in
  let batches = List.rev !batch_reports in
  let count f = List.length (List.filter f requests) in
  let completed = count (fun r -> r.outcome = Completed) in
  let shed = count (fun r -> match r.outcome with Shed _ -> true | _ -> false) in
  let failed = count (fun r -> match r.outcome with Failed _ -> true | _ -> false) in
  let services =
    List.sort compare (List.filter_map (fun r -> r.service_ms) requests)
  in
  (* The two counts Health's slo-attainment rule reads, published once
     from the report's own fields. *)
  Obs.incr ~by:!admitted "serve_admitted_total";
  Obs.incr ~by:completed "serve_completed_total";
  {
    config_seed = cfg.seed;
    model = cfg.model;
    slot_capacity;
    est_batch_ms;
    slo_ms;
    max_wait_ms;
    arrivals = n_arrivals;
    admitted = !admitted;
    completed;
    shed;
    failed;
    shed_by_reason =
      Resilience.Recovery.tally ( + ) 0
        (List.filter_map
           (fun r -> match r.outcome with Shed why -> Some (why, 1) | _ -> None)
           requests);
    failed_by_cause =
      Resilience.Recovery.tally ( + ) 0
        (List.filter_map
           (fun r -> match r.outcome with Failed c -> Some (c, 1) | _ -> None)
           requests);
    deadline_misses = count (fun r -> r.outcome = Failed "deadline_missed");
    goodput_rps =
      (if cfg.duration_ms <= 0.0 then 0.0
       else float_of_int completed /. (cfg.duration_ms /. 1000.0));
    slo_attainment =
      (if !admitted = 0 then 1.0
       else float_of_int completed /. float_of_int !admitted);
    p50_service_ms = percentile services 0.50;
    p99_service_ms = percentile services 0.99;
    queue_depth_peak = !qpeak;
    batches_run = List.length batches;
    batch_retries =
      List.length (List.filter (fun (b : batch_report) -> b.attempt > 1) batches);
    mean_batch_fill =
      (match batches with
      | [] -> 1.0
      | bs ->
          List.fold_left
            (fun a (b : batch_report) ->
              a +. (float_of_int b.size /. float_of_int slot_capacity))
            0.0 bs
          /. float_of_int (List.length bs));
    breaker_opens = !breaker_opens;
    recovery =
      Resilience.Recovery.merge (List.map (fun (b : batch_report) -> b.recovery) batches);
    requests;
    batches;
  }

let opt_float = function
  | None -> Obs.Json.Null
  | Some v -> Obs.Json.Float v

let nan_null v = if Float.is_nan v then Obs.Json.Null else Obs.Json.Float v

let request_to_json r =
  Obs.Json.Obj
    [
      ("rid", Obs.Json.Int r.rid);
      ("arrival_ms", Obs.Json.Float r.arrival_ms);
      ("deadline_ms", Obs.Json.Float r.deadline_ms);
      ("outcome", Obs.Json.String (outcome_name r.outcome));
      ( "detail",
        match r.outcome with
        | Completed -> Obs.Json.Null
        | Shed why -> Obs.Json.String why
        | Failed cause -> Obs.Json.String cause );
      ("completion_ms", opt_float r.completion_ms);
      ("service_ms", opt_float r.service_ms);
      ( "batch",
        match r.batch with None -> Obs.Json.Null | Some b -> Obs.Json.Int b );
      ("attempts", Obs.Json.Int r.attempts);
      ("recovery_ms", Obs.Json.Float r.recovery_ms);
    ]

let batch_to_json (b : batch_report) =
  Obs.Json.Obj
    [
      ("batch", Obs.Json.Int b.batch_id);
      ("formed_ms", Obs.Json.Float b.formed_ms);
      ("size", Obs.Json.Int b.size);
      ("attempt", Obs.Json.Int b.attempt);
      ("members", Obs.Json.List (List.map (fun r -> Obs.Json.Int r) b.members));
      ("ok", Obs.Json.Bool b.ok);
      ( "error",
        match b.error with None -> Obs.Json.Null | Some e -> Obs.Json.String e );
      ("exec_ms", Obs.Json.Float b.exec_ms);
      ("injected_faults", Obs.Json.Int b.injected_faults);
      ("retries", Obs.Json.Int b.retries);
      ("panic_refreshes", Obs.Json.Int b.panic_refreshes);
      ("recovery", Resilience.Recovery.accounting_json b.recovery);
    ]

let json_kv_counts kvs =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) kvs)

let to_json r =
  Obs.Json.Obj
    [
      ("seed", Obs.Json.String (Int64.to_string r.config_seed));
      ("model", Obs.Json.String r.model);
      ("slot_capacity", Obs.Json.Int r.slot_capacity);
      ("est_batch_ms", Obs.Json.Float r.est_batch_ms);
      ("slo_ms", Obs.Json.Float r.slo_ms);
      ("max_wait_ms", Obs.Json.Float r.max_wait_ms);
      ("arrivals", Obs.Json.Int r.arrivals);
      ("admitted", Obs.Json.Int r.admitted);
      ("completed", Obs.Json.Int r.completed);
      ("shed", Obs.Json.Int r.shed);
      ("failed", Obs.Json.Int r.failed);
      ("shed_by_reason", json_kv_counts r.shed_by_reason);
      ("failed_by_cause", json_kv_counts r.failed_by_cause);
      ("deadline_misses", Obs.Json.Int r.deadline_misses);
      ("goodput_rps", Obs.Json.Float r.goodput_rps);
      ("slo_attainment", Obs.Json.Float r.slo_attainment);
      ("p50_service_ms", nan_null r.p50_service_ms);
      ("p99_service_ms", nan_null r.p99_service_ms);
      ("queue_depth_peak", Obs.Json.Int r.queue_depth_peak);
      ("batches_run", Obs.Json.Int r.batches_run);
      ("batch_retries", Obs.Json.Int r.batch_retries);
      ("mean_batch_fill", Obs.Json.Float r.mean_batch_fill);
      ("breaker_opens", Obs.Json.Int r.breaker_opens);
      ("recovery", Resilience.Recovery.accounting_json r.recovery);
      ("requests", Obs.Json.List (List.map request_to_json r.requests));
      ("batches", Obs.Json.List (List.map batch_to_json r.batches));
    ]
