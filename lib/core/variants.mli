(** The substitution-analysis variants of Section 5 and the two baseline
    configurations, all expressed over the same region engine:

    - [resbm]: minimal-level bootstrapping, SCALEMGR + SMOPLC rescaling,
      BTSPLC bootstrap placement;
    - [resbm_max]: like ReSBM but every bootstrap is raised to [l_max]
      (Fhelipe/DaCapo elevation policy);
    - [resbm_eva]: ReSBM's bootstrapping with EVA's waterline rescaling
      in place of SCALEMGR/SMOPLC;
    - [resbm_pm]: [resbm_max] with PARS's lazy rescaling (the DaCapo-style
      configuration);
    - [fhelipe]: max-level bootstrapping at the region live-outs (depth
      based dynamic programming) with EVA rescaling — the paper's own
      re-implementation of Fhelipe used for RQ2. *)

type manager = {
  name : string;
  config : Btsmgr.config;
  ms_opt : bool;  (** Post-pass modswitch hoisting (the max-level managers). *)
}

val resbm : manager
val resbm_max : manager
val resbm_eva : manager
val resbm_pm : manager
val fhelipe : manager

val all : manager list
(** [resbm; resbm_eva; resbm_max; resbm_pm; fhelipe] — the Figure 6 bars. *)

val by_name : string -> manager option
(** The manager in {!all} with this name, ignoring case and treating
    ['_'] and ['-'] alike: ["resbm_pm"], ["ReSBM-PM"] and
    ["resbm-max"] all resolve. *)

val compile :
  ?verify_each:bool ->
  ?jobs:int ->
  ?cache:Plan_cache.t ->
  manager ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Fhe_ir.Dfg.t * Report.t
(** [verify_each] and [cache] are forwarded to
    {!Driver.compile}.  [jobs] is ignored: planning is single-domain.  The
    parameter exists only so existing [~jobs:1] callers still compile. *)
