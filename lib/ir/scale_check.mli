(** Static scale and level analysis.

    Propagates (scale, level) through a DFG following Table 1 and validates
    every operation constraint of Section 2.2.  This is the compile-time
    mirror of the simulated evaluator: a DFG that passes [run] executes on
    {!Ckks.Evaluator} without [Fhe_error], and vice versa.

    Plaintext ([Const]) scales are resolved from their uses: a constant
    multiplied into a ciphertext is encoded at the waterline (EVA's
    convention for weights); a constant added to a ciphertext is encoded at
    the ciphertext's scale.

    {!transfer} is the one place Table 1's per-node rule is written:
    {!analyse} folds it, [Resbm.Plan.apply]'s repair pass calls it node
    by node, and [Analysis.Verify] (the certify level proof) reports
    {!analyse}'s strict violations. *)

type info = {
  scale_bits : int;
  level : int;
  is_ct : bool;
}

val dummy : info
(** The entry of a dead node in an analysis result. *)

type violation = { node : int; message : string }

val pp_violation : Format.formatter -> violation -> unit

val run : ?order:int array -> Ckks.Params.t -> Dfg.t -> (info array, violation list) result
(** Full validation.  On success the array is indexed by node id (dead
    nodes carry a dummy entry).  [order] is {!Dfg.topo_order} as an
    array when the caller has sorted the graph already (default: sorted
    here).  That one sort is also the acyclicity proof, so
    {!Dfg.validate} skips its own cycle check; a graph that cannot be
    sorted is reported as cyclic. *)

val transfer : Ckks.Params.t -> info array -> Dfg.node -> info
(** [transfer prm info node] is [node]'s (scale, level) point by Table 1,
    reading its operands' points from [info] (indexed by node id).
    Lenient: a rescale or modswitch clamps at level 0 (a rescale's scale
    at [2^1]), and no constraint is checked.  A constant reads as a
    plaintext at the waterline with level [max_int]; its encoding scale
    is decided by its consumers ({!analyse} back-patches it). *)

val analyse :
  ?order:int array -> strict:bool -> Ckks.Params.t -> Dfg.t -> info array * violation list
(** {!transfer} folded over {!Dfg.topo_order} ([order] when given, as in
    {!run}): the engine behind {!run}
    and {!infer}.  In strict mode every constraint violation of Table 1
    is recorded; in lenient mode propagation continues with clamped
    values.  Unlike {!run} this does not check well-formedness first:
    callers analysing arbitrary graphs must run {!Dfg.validate}
    themselves (argument ids must at least be in range).  [Analysis.Verify] uses it to report scale violations under
    its own rule ids after its well-formedness pass. *)

val infer : ?order:int array -> Ckks.Params.t -> Dfg.t -> info array
(** Best-effort propagation that never fails: constraint violations are
    ignored and levels are clamped at 0.  Used by planners and the latency
    model on graphs that are not yet fully legalised. *)
