(** Deterministic simulated-clock request serving: arrivals, deadlines,
    admission control, slot-batched execution, retries, and a circuit
    breaker — the subsystem that turns one-shot inference into a service
    with an SLO.

    A campaign replays a seeded arrival trace (Poisson or recorded)
    through a bounded queue.  Each arrival is admitted or shed (breaker
    open, queue full, or predicted completion past its deadline); the
    {!Batcher} packs admitted requests into the unused CKKS slots of one
    inference, which executes under {!Resilience.Recovery} supervision
    from the campaign's one prepared {!Fhe_ir.Interp.Program} —
    optionally with a per-dispatch {!Ckks.Fault} plan drawn by
    {!Resilience.Chaos.trial_plan} at [chaos_rate] —
    so mid-batch faults are rolled back and re-charged to the simulated
    clock.  A batch that still fails with a retryable error is retried
    with capped exponential backoff, shedding members whose deadlines
    cannot fit a clean re-execution; a bad recent window (faults or
    deadline misses) degrades the breaker from full batches to half-size
    batches to rejecting arrivals outright until a cooldown passes.

    Everything — arrivals, payloads, fault plans, evaluator noise,
    backoff — is deterministic in [seed] over the simulated clock, so a
    campaign report serialises byte-for-byte identically across runs and
    plan-cache temperatures.  Recovery latency is accounted {e per
    request}: each successful batch's recovery cost is split across its
    members (the per-request sum equals the batch total exactly), and
    every arrival terminates as completed, shed, or failed exactly
    once. *)

type arrival =
  | Poisson of float  (** Mean arrival rate, requests per second. *)
  | Replay of float list  (** Recorded arrival times (ms); unsorted ok. *)

type config = {
  seed : int64;  (** Master seed; every stream below is salted from it. *)
  model : string;  (** {!Nn.Model.by_name} name. *)
  l_max : int;  (** Scheme max level for compilation. *)
  dim : int;  (** Slots per request payload. *)
  arrival : arrival;
  duration_ms : float;  (** Arrival-window length (simulated). *)
  slo_ms : float;
      (** Per-request deadline after arrival; [<= 0] derives
          [3 * est_batch_ms], the fault-free batch latency. *)
  max_batch : int;  (** Requests per batch cap (also capped by slots). *)
  chaos_rate : float;  (** Per-op fault injection rate; 0 = no faults. *)
  recovery : Resilience.Recovery.config;
      (** Supervisor config for batch execution; its [max_backoff_ms]
          also caps the scheduler's own batch-retry backoff. *)
}

val default : config
(** tiny model, l_max 9, dim 16, Poisson 40 rps for 1 s, derived SLO,
    max_batch 4, no chaos, recovery defaults.

    The serving policy is fixed: a batch waits at most [slo / 4] to
    fill; the queue holds 16 requests; a chaos dispatch injects at most
    2 faults; a retryable batch failure is re-dispatched at most twice,
    after 5 ms doubling per attempt (capped by [recovery]'s
    [max_backoff_ms]); the breaker judges the last 6 batches, moves a
    stage when at least half were bad (closing again from Degraded below
    a quarter), and holds Open for [2 * slo]. *)

type outcome =
  | Completed  (** Finished within its deadline. *)
  | Shed of string
      (** Never executed: ["breaker_open"], ["queue_full"],
          ["predicted_miss"], or ["retry_wont_fit"]. *)
  | Failed of string
      (** Executed but lost: ["deadline_missed"], or the structured
          error cause that exhausted its retries. *)

val outcome_name : outcome -> string

type request_report = {
  rid : int;
  arrival_ms : float;
  deadline_ms : float;
  outcome : outcome;
  completion_ms : float option;  (** Set iff a batch produced outputs. *)
  service_ms : float option;  (** [completion - arrival]. *)
  batch : int option;  (** Last batch that carried the request. *)
  attempts : int;  (** Dispatches the request rode (0 if shed unqueued). *)
  recovery_ms : float;
      (** This request's share of its batches' recovery latency; summing
          over a batch's members reproduces the batch total exactly. *)
}

type batch_report = {
  batch_id : int;
  formed_ms : float;
  size : int;
  attempt : int;  (** 1 for first dispatch, +1 per retry. *)
  members : int list;  (** Request ids, queue order. *)
  ok : bool;
  error : string option;
  exec_ms : float;  (** Simulated execution latency this attempt charged. *)
  injected_faults : int;
  retries : int;  (** In-batch supervisor rollbacks (not re-dispatches). *)
  panic_refreshes : int;
  recovery : Resilience.Recovery.accounting;
      (** The attempt's recovery ledger; {!Resilience.Recovery.no_recovery}
          when it failed. *)
}

type report = {
  config_seed : int64;
  model : string;
  slot_capacity : int;  (** Requests one batch can pack. *)
  est_batch_ms : float;
      (** Fault-free full-batch latency, priced statically
          ({!Fhe_ir.Interp.Program.prefix_ms} over the whole execution
          order). *)
  slo_ms : float;  (** Resolved (possibly derived) SLO. *)
  max_wait_ms : float;  (** Resolved batch-fill wait. *)
  arrivals : int;
  admitted : int;
  completed : int;
  shed : int;
  failed : int;
  shed_by_reason : (string * int) list;  (** Sorted. *)
  failed_by_cause : (string * int) list;  (** Sorted. *)
  deadline_misses : int;
  goodput_rps : float;  (** Completed per second of campaign duration. *)
  slo_attainment : float;  (** completed / admitted; 1.0 when none. *)
  p50_service_ms : float;  (** Nearest-rank; [nan] with no completions. *)
  p99_service_ms : float;
  queue_depth_peak : int;
  batches_run : int;
  batch_retries : int;  (** Batches that were re-dispatches. *)
  mean_batch_fill : float;  (** Mean size/capacity; 1.0 with no batches. *)
  breaker_opens : int;
  recovery : Resilience.Recovery.accounting;
      (** {!Resilience.Recovery.merge} of the batches' ledgers. *)
  requests : request_report list;  (** Every arrival, id order. *)
  batches : batch_report list;  (** Dispatch order. *)
}

val run : ?jobs:int -> ?cache:Resbm.Plan_cache.t -> config -> report
(** Run a campaign.  [cache] feeds the planner
    ({!Resbm.Driver.compile_robust}), whose plans are bit-identical warm
    or cold — the report does not depend on it.  [jobs] is ignored:
    planning is single-domain.  The parameter exists only so existing
    [~jobs:1] callers still compile.  Log events ([serve.admit] /
    [serve.shed] / [serve.batch.formed] / [serve.deadline.missed] /
    [serve.breaker.open]) and trace instants go to the ambient {!Obs}
    collectors when installed.  The served plan is prepared once
    ({!Fhe_ir.Interp.Program.make}, counted as [interp.programs] on the
    ambient profile) and every dispatch and retry runs on it through
    {!Resilience.Recovery.run_program}; the constants are resolved once,
    through one memoising {!Nn.Lowering.resolver}.  At campaign end the
    report's [admitted] and [completed] counts are added to the ambient
    metrics registry as [serve_admitted_total] / [serve_completed_total]
    (what {!Obs.Health}'s slo-attainment rule reads); the report is
    computed from plain state, so it is identical either way.

    Invariants (asserted or test-enforced): every arrival terminates as
    completed, shed, or failed exactly once;
    [completed + failed + shed = arrivals]; the per-request recovery
    latency of a successful batch sums to that batch's recovery total.

    @raise Invalid_argument on an unknown model or degenerate config. *)

val to_json : report -> Obs.Json.t
(** Deterministic serialisation — byte-identical across runs with the
    same config (via {!Obs.Json.to_string}).  Batch and campaign levels
    carry their ledgers as ["recovery"] objects rendered through
    {!Resilience.Recovery.accounting_json}, the schema chaos reports
    share. *)
