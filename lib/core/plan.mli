(** Plan application — [InsertScaleAndBootstrappingPlan] of Algorithm 1.

    Materialises a {!Btsmgr.plan} into a fresh DFG: rescale chains are
    inserted on the SMO cut edges (one shared rescale per cut tail),
    bootstraps on the bootstrap cut edges, program outputs are rewired,
    and two repair passes run afterwards:

    - {e level-deficit repair}: a ciphertext produced before a bootstrap
      point but consumed after it arrives below the consumer's planned
      level; such operands are bootstrapped up to exactly the planned
      level of the consuming join (the minimal-level principle applied to
      transiting values);
    - {e legalisation}: remaining downward mismatches are closed with
      shared modswitch chains ({!Fhe_ir.Legalize}).

    The result passes {!Fhe_ir.Scale_check.run}. *)

type outcome = {
  dfg : Fhe_ir.Dfg.t;  (** Fresh managed graph (the input is not mutated). *)
  repair_bootstraps : int;  (** Bootstraps added by level-deficit repair. *)
  levels : int array;
      (** Level of every node of the repaired graph, by id, as the repair
          pass propagated it and {!Fhe_ir.Legalize.run} consumed it.  Equal
          to {!Fhe_ir.Scale_check.infer}'s on every live ciphertext; ids
          from [Array.length levels] on are legalisation's modswitches. *)
  final_info : Fhe_ir.Scale_check.info array;
      (** The closing {!Fhe_ir.Scale_check} analysis of [dfg] (from
          {!Fhe_ir.Legalize.run}) — reuse it instead of re-inferring. *)
  order : int array;
      (** [dfg]'s {!Fhe_ir.Dfg.topo_order}, from the same closing
          analysis — reuse it instead of re-sorting. *)
}

exception Apply_error of string

val apply : Region.t -> Ckks.Params.t -> Btsmgr.plan -> outcome
(** @raise Apply_error when the managed graph still violates a scale or
    level constraint (a planner bug or an ill-structured input graph). *)
