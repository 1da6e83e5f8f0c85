(** Recovery-aware execution: checkpoint, retry, panic re-bootstrap.

    Wraps {!Fhe_ir.Interp.Session} with a supervisor that makes a run
    survive the faults {!Ckks.Fault} injects (and, more generally, any
    retryable divergence between the runtime ciphertext state and the
    static plan):

    - {b Checkpoints} are taken at region boundaries (the managed graph's
      {!Resbm.Report.t.region_of} attribution), holding only the values
      still live there; the set of retained checkpoints is bounded by a
      liveness-derived byte budget (default: twice the program's
      {!Fhe_ir.Liveness} peak working set), evicting the checkpoint of
      minimum marginal re-execution value (the {!Fhe_ir.Latency} cost of
      the span it saves replaying, ties oldest-first; the newest — the
      rollback target — is never evicted) but always keeping at least
      one.  Rollback only ever restores the newest, so it alone is a
      {!Fhe_ir.Interp.Session.snapshot}; the older retained checkpoints
      are positions and byte counts in flat arrays, kept for the
      budget's accounting and {!stats.held_checkpoints}.
    - {b Retry with rollback}: a retryable failure (an
      [Injected_transient] {!Ckks.Evaluator.Fhe_error}, or any error when
      faults were injected since the newest checkpoint) rolls back to the
      newest checkpoint and re-executes, up to [max_attempts] per
      checkpoint interval, charging an exponential backoff delay to the
      {e simulated} clock — determinism is preserved because no wall
      clock is involved.
    - {b Boundary validation}: at each boundary the live ciphertexts are
      checked for slot integrity ({!Ckks.Ciphertext.integrity_ok} — the
      only validator that can see a corrupted slot sitting below the
      noise floor), against the scale checker's static level/scale
      contract, and against a noise floor; a violation (e.g. an
      undetected scale drift or a sub-floor slot corruption) triggers a
      retry, and {!Ckks.Evaluator.State_divergence} when retries are
      exhausted.  Ciphertexts are immutable and the verdicts depend only
      on the node and its value, so each value is validated once: a
      boundary checks the live ciphertexts written
      ({!Fhe_ir.Interp.Session.writes}) since the last boundary that
      passed.  A rollback keeps that mark: the checkpoint it restores
      was taken at that boundary, so the values it brings back were
      checked there.  The profile counter [recovery.validations] counts
      the ciphertexts checked.
    - {b Panic re-bootstrap}: a ciphertext whose observed noise headroom
      fell below the 6-bit floor at a boundary {e although the static
      noise analysis} ({!Fhe_ir.Noise_check}) {e predicted it safe} is —
      once retries are exhausted or pointless — refreshed in place
      ({!Fhe_ir.Interp.Session.refresh}): a bootstrap-priced noise reset
      that keeps the plan's level/scale bookkeeping intact.

    With no injector installed and no divergence, a run is bit-identical
    to {!Fhe_ir.Interp.run}: the supervisor only reads state between
    nodes and never touches the evaluator's PRNG. *)

type config = {
  max_attempts : int;
      (** Rollback-retries per checkpoint interval before escalating
          (re-raising, or panic-refreshing a noise violation). *)
  backoff_ms : float;
      (** Base retry delay, charged to the simulated clock; attempt [k]
          waits [backoff_ms * 2^(k-1)], clipped to [max_backoff_ms]. *)
  max_backoff_ms : float;
      (** Ceiling on a single backoff delay (unbounded doubling can blow
          past any request deadline); the serving scheduler's batch-retry
          backoff shares it.  Clipped backoffs are counted in
          {!accounting.capped_backoffs}. *)
  checkpoint_budget_bytes : float option;
      (** Total bytes of retained checkpoints; [None] derives
          [2 * Program.peak_bytes] from the program.  At least one
          checkpoint is always kept. *)
}
(** The boundary noise validator's thresholds are constants: a
    ciphertext is damaged when its observed headroom falls below 6 bits
    although the static analysis predicted it safe, or more than 12 bits
    below its static prediction (above the noise model's validated
    10-bit error, so clean runs never trip it). *)

val default : config
(** [max_attempts = 3], [backoff_ms = 5.0], [max_backoff_ms = 80.0] (never
    reached by the default three attempts, whose largest delay is 20 ms —
    existing pinned campaigns are unchanged), derived budget.  Serving
    and chaos campaigns run on it (retry-less chaos with
    [max_attempts = 0]). *)

type accounting = {
  recovery_ms_by_kind : (string * float) list;
      (** Simulated latency spent recovering (wasted re-execution +
          backoff), attributed to the fault kind blamed for each retry
          (or the error cause when no injection explains it), sorted. *)
  backoff_ms_total : float;  (** Simulated backoff charged by retries. *)
  capped_backoffs : int;
      (** Backoff delays clipped by {!config.max_backoff_ms}. *)
}
(** The recovery ledger: one supervised run's recovery cost, or the
    {!merge} of many.  Chaos trials, models and campaigns and serving
    batches and campaigns each hold exactly one. *)

val no_recovery : accounting
(** The ledger of a run that recovered nothing (a failed run's
    accounting dies with its exception). *)

val merge : accounting list -> accounting
(** Sum ledgers: per-kind latencies through {!tally}, totals by a left
    fold in list order — the float association every aggregate uses, so
    a merged report is reproducible bit for bit. *)

val accounting_json : accounting -> Obs.Json.t
(** The shared recovery-accounting JSON schema:
    [{"recovery_ms_by_kind": {...}, "backoff_ms_total": f,
    "capped_backoffs": n}].  Every ["recovery"] object of a chaos or
    serving campaign report is rendered through this one function. *)

val tally : ('a -> 'a -> 'a) -> 'a -> (string * 'a) list -> (string * 'a) list
(** [tally add zero kvs] sums the values of each key, folding them left
    in list order from [zero], and returns the keys ascending.  The one
    tally behind every per-kind count and millisecond map of the chaos
    and serving reports, e.g. [tally ( + ) 0 [("b", 1); ("a", 1); ("b", 1)]
    = [("a", 1); ("b", 2)]]. *)

type stats = {
  retries : int;  (** Rollback-retries performed. *)
  panic_refreshes : int;  (** In-place re-bootstraps of noisy ciphertexts. *)
  checkpoints : int;  (** Checkpoints taken. *)
  evictions : int;  (** Checkpoints dropped to stay under the budget. *)
  checkpoint_bytes_peak : float;  (** Peak retained checkpoint bytes. *)
  recovery : accounting;  (** This run's recovery ledger. *)
  injected_faults : int;  (** Injections observed during this run. *)
  held_checkpoints : int list;
      (** Execution-order positions of the checkpoints still retained when
          the run finished, ascending — shows which spans the value-based
          eviction chose to keep guarding. *)
}

type expectation
(** The boundary noise validator's static side: every node's predicted
    headroom ({!Obs.Trace.headroom_bits} of its {!Fhe_ir.Noise_check}
    estimate), one [log2] per node, taken once.  It depends only on the
    program and its noise report, so a server builds it once per
    campaign, next to the report, and every batch and retry reads it. *)

val expect : Fhe_ir.Noise_check.report -> expectation

val run_program :
  ?config:config ->
  ?trace:Obs.Trace.t ->
  noise:expectation ->
  Fhe_ir.Interp.Program.t ->
  Ckks.Evaluator.t ->
  Fhe_ir.Interp.env ->
  Fhe_ir.Interp.result * stats
(** Supervised execution of a prepared program.  Its region attribution
    ({!Fhe_ir.Interp.Program.boundary}) defines the checkpoint
    boundaries; the derived checkpoint budget is twice its
    {!Fhe_ir.Interp.Program.peak_bytes}, and eviction values are
    differences of its {!Fhe_ir.Interp.Program.prefix_ms}.  The run does
    no static work of its own, so a server shares one program and one
    [noise] expectation across every batch and retry.  [noise] is the
    static per-node prediction the boundary validator compares observed
    headroom against, taken by {!expect} from a noise report: the sound
    uncapped estimate
    ([Noise_check.analyse ~magnitude_cap:infinity], {!run}'s default)
    can never flag a fault-free run; a sharper analysis (e.g. with the
    lowering's constant amplitudes) widens the detection window.
    Rollbacks and panic refreshes are marked as
    ["rollback"] / ["panic_refresh"] trace instants when a trace is
    installed.

    @raise Ckks.Evaluator.Fhe_error when recovery is exhausted: a
    non-retryable error, a retryable one out of attempts, or
    [State_divergence] when the runtime state cannot be reconciled with
    the plan.
    @raise Fhe_ir.Interp.Missing_input as {!Fhe_ir.Interp.run}.
    @raise Invalid_argument when [ev]'s parameters are not the
    program's. *)

val run :
  ?config:config ->
  ?trace:Obs.Trace.t ->
  ?region_of:(int -> int) ->
  ?noise:Fhe_ir.Noise_check.report ->
  Ckks.Evaluator.t ->
  Fhe_ir.Dfg.t ->
  Fhe_ir.Interp.env ->
  Fhe_ir.Interp.result * stats
(** [run_program] over [Program.make ?trace ?region_of (params ev) g]: a
    one-off supervised run of [g].  [region_of] defines the checkpoint
    boundaries (default: none, so only the initial checkpoint exists);
    [noise] defaults to the sound uncapped analysis of [g], computed per
    call.
    @raise Ckks.Evaluator.Fhe_error as {!Fhe_ir.Interp.Program.make} and
    {!run_program}. *)
