(** The ReSBM compiler driver — Algorithm 1.

    [compile prm g] partitions the DFG of the FHE program [g] into regions
    ({!Region}), has {!Btsmgr} derive a rescaling and minimal-level
    bootstrapping plan with {!Scalemgr}, {!Smoplc} and {!Btsplc}, and
    applies the plan ({!Plan}), returning a managed graph that satisfies
    every RNS-CKKS scale and level constraint, plus a {!Report}.

    The input graph must contain no SMOs or bootstraps yet. *)

exception Verification_failed of string * Analysis.Diag.t list
(** Raised under [~verify_each:true] when a pass leaves the graph in an
    illegal state; carries the name of the offending pass
    ("region_build", "plan_apply" or "ms_opt") and the error-severity
    diagnostics that fired. *)

val certify_diags :
  Ckks.Params.t -> Fhe_ir.Dfg.t -> Report.t -> (string * Analysis.Diag.t list) list
(** Run the full certification battery on a compile result without
    raising: re-check every min-cut optimality certificate in
    {!Report.t.certificates} with {!Analysis.Certify} (group
    ["certify.cuts"]), prove level/capacity safety with the pass
    verifier {!Analysis.Verify.run} (["certify.levels"]: well-formedness
    and the strict Table 1 rules of {!Fhe_ir.Scale_check}) and noise
    safety with {!Analysis.Absint.check_noise} (["certify.noise"]).  Returns the
    groups in that order; all lists empty means the plan is certified.
    Each group is timed as a [certify.*] span on the ambient profile. *)

val compile :
  ?config:Btsmgr.config ->
  ?name:string ->
  ?ms_opt:bool ->
  ?verify_each:bool ->
  ?profile:Obs.Profile.t ->
  ?fuel:Fuel.t ->
  ?segment_scan:[ `Full | `Adjacent ] ->
  ?fallbacks:(string * string) list ->
  ?cache:Plan_cache.t ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Fhe_ir.Dfg.t * Report.t
(** [ms_opt] (default false) runs {!Passes.Ms_opt} after legalisation —
    the modswitch optimisation the paper grants the max-level managers for
    lowering excessively bootstrapped ciphertexts; the number of hoists it
    performs lands in {!Report.t.ms_opt_hoists}.  It starts from
    legalisation's closing analysis and order and hands its patched ones
    to the latency and stats phases, so no manager re-infers or re-sorts
    the managed graph after legalisation.

    [verify_each] (default false) runs the {!Analysis.Verify} invariant
    verifier after every pass — region build (structural and region
    invariants; the graph is not yet scale-legal there), plan application
    and [ms_opt] (full legality) — failing fast with
    {!Verification_failed} naming the offending pass instead of letting a
    planner bug surface as a confusing downstream failure or a silently
    wrong latency.  Each verification is timed as a [verify.<pass>] span
    (with per-rule [verify.<rule>] children) in the ambient profile.

    [fuel] and [segment_scan] are forwarded to {!Btsmgr.plan};
    [fallbacks] (default empty) is recorded verbatim in the report —
    {!compile_robust} uses both; plain callers leave them alone.

    Every phase (region build, plan, apply, ms_opt, latency, stats) is
    timed as a span, and the min-cut / planner counters are collected, in
    the ambient {!Obs} profile: a caller-supplied [?profile], or a fresh
    one otherwise.  Either way it is returned in {!Report.t.profile}.
    With an {!Obs.Metrics} registry ambient, each phase's promoted
    major-heap words are observed as [gc_major_words{phase}] — the
    driver's only metric family besides {!compile_robust}'s fallback
    counter; the report is the record of the plan itself.

    [cache] consults an in-memory {!Plan_cache} before planning and
    stores the result after: a hit returns a bit-identical plan and
    report (with [compile_ms] set to the lookup time, and [fallbacks] to
    this call's argument) without running any phase — including
    [verify_each].  A miss plans from scratch: no planner state is shared
    across compiles, so a miss's counters, fuel spend and plan equal a
    cache-free compile's.
    @raise Btsmgr.No_plan when no feasible plan exists for [l_max].
    @raise Plan.Apply_error when plan materialisation fails.
    @raise Fuel.Exhausted when a caller-supplied step budget runs out.
    @raise Verification_failed under [~verify_each:true], see above. *)

val planner_steps : Obs.Profile.t -> int
(** The fuel-metered planning work a compile performed, read back from
    its {!Report.t.profile}: the sum of the [btsmgr.segment_evals],
    [smoplc.cuts] and [btsplc.cuts] counters — exactly the steps a
    {!Fuel} budget meters.  0 for a warm plan-cache hit (no planning
    ran). *)

val calibrated_fuel_steps : Report.t list -> int
(** [calibrated_fuel_steps reports] derives a [fuel_steps] budget for
    {!compile_robust} from the compile profiles of past runs:
    {!Fuel.calibrate} (its defaults: the nearest-rank 0.95 percentile,
    padded by 1.5) over {!planner_steps} of each report.
    Feed it cold-compile reports of the workload mix you expect; the
    returned budget admits the chosen fraction of them without
    degradation.  @raise Invalid_argument on an empty list. *)

val compile_robust :
  ?fuel_steps:int ->
  ?ms_opt:bool ->
  ?verify_each:bool ->
  ?profile:Obs.Profile.t ->
  ?jobs:int ->
  ?cache:Plan_cache.t ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Fhe_ir.Dfg.t * Report.t
(** Graceful planner degradation: try each tier of the chain [resbm →
    waterline → eager] in order — the paper's full min-cut DP, then
    EVA-style waterline planning (region-end bootstraps at [l_max], no
    min-cuts, no transit pricing) over a full segment scan, then the
    linear eager strategy (one region per segment).  A tier failing with
    {!Btsmgr.No_plan}, {!Plan.Apply_error}, {!Fuel.Exhausted},
    {!Region_eval.Infeasible} or {!Verification_failed} falls through to
    the next instead of raising.
    [fuel_steps] bounds every non-terminal tier's planning steps
    (segment evaluations + min-cuts); the terminal tier always runs with
    unlimited fuel.  Each downgrade is recorded in
    {!Report.t.fallbacks} (tier name, reason), counted in the
    [planner_fallbacks_total{tier}] metric and marked as a
    ["planner_fallback"] trace instant.  Exceptions that indicate a
    broken input rather than a planner dead-end (e.g.
    [Invalid_argument]) are not caught; the terminal tier's failure, if
    any, escapes as-is.

    [jobs] is ignored: planning is single-domain.  The parameter exists
    only so existing [~jobs:1] callers still compile. *)
