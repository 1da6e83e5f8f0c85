(** Level legalisation.

    After a management plan has inserted rescales and bootstraps, edges
    that cross regions (e.g. residual connections) can connect ciphertexts
    at different levels.  Following the compilers in the paper (the
    modswitch chains visible in Figures 1b–1d), this pass drops the
    higher-level operand of every binary operation down to the lower level
    with [Modswitch] nodes, sharing chains between uses.

    Scale mismatches are not repairable by modswitch and are reported as
    errors. *)

val run :
  Ckks.Params.t ->
  Dfg.t ->
  levels:int array ->
  order:int list ->
  (Scale_check.info array * int array, Scale_check.violation list) result
(** [levels] is the level of every node of [g] by id — what
    {!Scale_check.infer} gives, or a caller's own propagation of the same
    rules — and [order] is {!Dfg.topo_order}[ g]; the pass trusts both.
    Mutates the graph in place.  On success the graph passes
    {!Scale_check.run}; the result is that final analysis (indexed by
    node id) and the legalised graph's {!Dfg.topo_order} as an array —
    callers wanting the managed graph's scales, levels or order should
    reuse them instead of re-running {!Scale_check.infer} or re-sorting,
    mirroring the [?info] sharing of {!Latency}. *)
