(** Static latency model of a DFG.

    Each node is charged its Table 2 latency at the level assigned by
    {!Scale_check.infer}, multiplied by its loop frequency — exactly the
    objective ReSBM's planner minimises (the "latency of a region is the
    sum of the latencies of all FHE operations within it").  Bootstraps are
    charged at their target level; every other operation at its operand
    level. *)

val node_cost : Ckks.Params.t -> Dfg.t -> Scale_check.info array -> int -> float
(** Latency (ms) of a single node given the analysis result. *)

val total : ?info:Scale_check.info array -> Ckks.Params.t -> Dfg.t -> float
(** Freq-weighted latency of the whole graph, ms.  Pass [?info] to reuse
    an existing {!Scale_check.infer} result instead of re-running the
    analysis — callers wanting both [total] and [by_kind] should infer
    once and share it. *)

val by_kind :
  ?info:Scale_check.info array ->
  Ckks.Params.t ->
  Dfg.t ->
  (Ckks.Cost_model.op * float) list
(** Latency decomposition per Table 2 row.  [?info] as in {!total}. *)
