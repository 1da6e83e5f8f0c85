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

    Every phase (region build, plan, apply, ms_opt, latency, stats) is
    timed as a span, and the min-cut / planner counters are collected, in
    the ambient {!Obs} profile: a caller-supplied [?profile], or a fresh
    one otherwise.  Either way it is returned in {!Report.t.profile}, and
    nothing the compile records reaches a profile installed around it.

    [cache] consults an in-memory {!Plan_cache} before planning and
    stores the result after: a hit returns a bit-identical plan and
    report (with [compile_ms] set to the lookup time) without running any
    phase — including [verify_each].  A miss plans from scratch: no
    planner state is shared across compiles, so a miss's counters and
    plan equal a cache-free compile's.
    @raise Btsmgr.No_plan when no feasible plan exists for [l_max].
    @raise Plan.Apply_error when plan materialisation fails.
    @raise Verification_failed under [~verify_each:true], see above. *)

val compile_robust :
  ?jobs:int ->
  ?cache:Plan_cache.t ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Fhe_ir.Dfg.t * Report.t
(** [compile ?cache prm g].  [jobs] is ignored (planning is
    single-domain); the alias exists only so existing [~jobs:1] callers
    still compile.  New code calls {!compile}. *)
