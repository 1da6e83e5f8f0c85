(** Modswitch hoisting.

    Moves [Modswitch] nodes above their producing operation when that
    producer has no other consumer, so the producer executes at the lower
    level (Table 2 latencies grow with the level).  This realises the
    Figure 3b preference — multiply first at the lower level — and the
    "modswitch optimisation" the paper grants ReSBM_max for lowering
    excessively bootstrapped ciphertexts.  Hoisting stops at inputs,
    constants, bootstraps and SMOs, and respects the capacity constraint
    when crossing multiplications.

    The pass is a worklist over modswitch ids.  It starts from a scale
    and level analysis of the graph, seeds a min-id set with every live
    modswitch, and repeatedly pops the smallest id, hoisting it when
    {!hoist_target} accepts it.  Popping the smallest id keeps the
    lowest-eligible-id-first order of a fixpoint that re-infers the whole
    graph before each hoist, so both produce the same graph.  A hoist
    re-queues the modswitches it creates on the target's operands and the
    modswitch users of the deleted modswitch — the only nodes a hoist can
    make eligible — and a node that is no longer eligible when popped is
    dropped.

    After each hoist the analysis is patched locally, not recomputed:
    the target and, under a relin, the relin drop one level, each new
    modswitch gets its operand's info one level lower, and the deleted
    modswitch gets {!Fhe_ir.Scale_check.dummy}.  Scales never change, and
    every other node keeps its level, because the producer now delivers
    the level the deleted modswitch delivered.  The topological order is
    patched the same way.  The cost is O(n) for the copies and the order
    plus O(hoists · log n) set operations; {!run_from} runs no analysis
    and no sort of its own. *)

val hoist_target :
  Ckks.Params.t -> (int -> Fhe_ir.Scale_check.info) -> Fhe_ir.Dfg.t -> int -> int option
(** [hoist_target prm info g m] is the node whose ciphertext operands
    receive the modswitch when the live modswitch [m] is hoisted — its
    single-use producer, or the mul_cc under a single-use relin — or
    [None] when [m] cannot move.  [info] gives each node's inferred scale
    and level.  Does not mutate [g]. *)

type result = {
  hoists : int;
  info : Fhe_ir.Scale_check.info array;
      (** Equal, entry by entry, to {!Fhe_ir.Scale_check.infer} of the
          hoisted graph (dead nodes included). *)
  order : int array;
      (** A topological order of exactly the hoisted graph's live nodes:
          the given order with each hoist's new modswitches just before
          their target, oldest first, and the deleted ones dropped. *)
}

val run_from :
  info:Fhe_ir.Scale_check.info array ->
  order:int array ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  result
(** Hoist to a fixpoint, starting from [info], the graph's
    {!Fhe_ir.Scale_check.infer} result (a legalised graph's closing
    analysis, such as [Resbm.Plan.outcome]'s [final_info]), and [order],
    its {!Fhe_ir.Dfg.topo_order} as an array.  [info] is copied, not
    mutated.  The result describes the hoisted graph, so a caller reads
    its latency and statistics without re-inferring or re-sorting. *)

val run : ?order:int array -> Ckks.Params.t -> Fhe_ir.Dfg.t -> int
(** {!run_from} after one {!Fhe_ir.Scale_check.infer}; returns the
    number of hoists.  [order] is {!Fhe_ir.Dfg.topo_order} as an array
    when the caller has sorted the graph already (default: sorted
    here). *)
