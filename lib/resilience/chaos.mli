(** Seeded chaos campaigns: randomized fault-injection trials with
    recovery measurement.

    A campaign runs [trials] supervised inferences ({!Recovery}) per
    model, each under a fault plan drawn from the campaign's SplitMix64
    stream (per-kind probabilities scaled by [rate], magnitudes drawn from
    kind-appropriate ranges, a per-trial fault budget), and compares every
    output against a fault-free reference run of the same compiled graph
    with the same evaluator seed.  Everything — fault plans, evaluator
    noise, backoff (simulated clock) — is deterministic in [seed], so a
    campaign report serialises byte-for-byte identically across runs; no
    wall-clock value enters the report.

    A trial {e recovers} when it completes and its worst output deviation
    from the reference stays within the campaign tolerance (derived from
    the reference's own noise estimate).  Trials whose injector never
    fired must match the reference bit-for-bit — that is the fault-off
    identity check running continuously inside every campaign. *)

type config = {
  seed : int64;  (** Master seed: fault plans and the evaluator stream. *)
  trials : int;  (** Trials per model. *)
  models : string list;  (** {!Nn.Model.by_name} names. *)
  l_max : int;  (** Scheme max level for compilation. *)
  dim : int;  (** Slot count of the synthetic input image. *)
  rate : float;  (** Base per-op injection probability, scaled per kind. *)
  no_retries : bool;
      (** Retry-less campaign: recovery runs with [max_attempts = 0]
          (in place of {!Recovery.default}'s 3) and fault plans inject
          only noise spikes, so every detected fault goes straight to the
          panic re-bootstrap repair path instead of rollback-retry — the
          coverage mode for that branch. *)
  from_trace : bool;
      (** Divergence-targeted campaign: the fault-free reference run is
          flight-recorded ({!Obs.Trace}), its per-node noise divergence
          against the static estimate ranked
          ({!Fhe_ir.Noise_check.trace_hotspots}), and every fault rule
          gets a node-restricted copy with boosted probability aimed at
          the hot spots.  Tracing is pure instrumentation, so the
          reference outputs (and the fault-off identity check) are
          unchanged. *)
}

val default : config
(** seed 0xC4A05, 25 trials, [tiny] model, l_max 9, dim 64, rate 0.02,
    retries enabled, untargeted.  Every trial runs under
    {!Recovery.default} (with [max_attempts = 0] under [no_retries]) and
    a fault plan of at most 3 injections. *)

type trial = {
  trial_index : int;
  injected : int;  (** Faults the injector fired during the trial. *)
  kinds : (string * int) list;  (** Injections by kind, sorted. *)
  completed : bool;  (** The run produced outputs (recovery held). *)
  recovered : bool;
      (** [completed] and the output deviation is within tolerance. *)
  max_abs_delta : float;  (** Worst |output - reference| ([nan] if failed). *)
  error : string option;  (** Structured cause name when the run failed. *)
  retries : int;
  panic_refreshes : int;
  recovery : Recovery.accounting;
      (** The run's {!Recovery.stats.recovery}; {!Recovery.no_recovery}
          when it failed. *)
}

type model_summary = {
  model : string;
  compile_manager : string;  (** Surviving planner tier. *)
  compile_fallbacks : (string * string) list;
  tolerance : float;  (** |delta| bound for "recovered". *)
  trials_run : int;
  faulted_trials : int;  (** Trials with at least one injection. *)
  injected_faults : int;
  completed_trials : int;
  recovered_trials : int;  (** Faulted trials that recovered. *)
  clean_identical : bool;
      (** Every injection-free trial matched the reference exactly. *)
  recovery_rate : float;  (** recovered / faulted; 1.0 when none faulted. *)
  faults_by_kind : (string * int) list;  (** Injections by kind, sorted. *)
  recovery : Recovery.accounting;  (** {!Recovery.merge} of the trials'. *)
  total_retries : int;
  total_panic_refreshes : int;
  fault_targets : (int * float) list;
      (** Hot-spot [(node, traced/predicted ratio)] targets the campaign
          aimed at ([from_trace] only; empty otherwise). *)
  trials : trial list;
}

type report = {
  config_seed : int64;
  models : model_summary list;
  total_faulted : int;
  total_recovered : int;
  overall_recovery_rate : float;
  recovery : Recovery.accounting;  (** {!Recovery.merge} of the models'. *)
}

val trial_plan :
  Ckks.Prng.t ->
  rate:float ->
  budget:int ->
  no_retries:bool ->
  targets:int list ->
  Ckks.Fault.plan
(** The fault plan of one trial, drawn from [rng]: an injector seed, then
    per-kind probabilities scaled by [rate] and magnitudes.  The default
    mix is a transient, a noise spike, a scale drift and a slot
    corruption; [no_retries] draws a noise spike alone; non-empty
    [targets] prepend a copy of every rule restricted to those nodes,
    its probability boosted 4x (capped at 1).  The serving scheduler
    draws each dispatch's plan here too
    ([~no_retries:false ~targets:[]]).  The draw order is fixed: a
    reordered draw moves every pinned campaign. *)

val run : config -> report
(** Runs the campaign.  Each model's managed graph is prepared once
    ({!Fhe_ir.Interp.Program.make}, counted as [interp.programs] on the
    ambient profile): its reference run and every trial execute that one
    program, and the trials' static noise prediction reads the same
    memoised constant payloads the runs encode.  At the end, each
    model's [faulted_trials] and [recovered_trials] are added to the
    ambient metrics registry (when one is installed) as
    [chaos_faulted_total{model}] / [chaos_recovered_total{model}], the
    pair {!Obs.Health}'s recovery-rate rule reads.
    @raise Invalid_argument on an unknown model name. *)

val to_json : report -> Obs.Json.t
(** Deterministic serialisation: identical seeds and configs produce
    byte-identical strings via {!Obs.Json.to_string}.  Trial, model, and
    report levels each carry their ledger as a ["recovery"] object
    rendered through {!Recovery.accounting_json}, the schema serving
    campaign reports use. *)
