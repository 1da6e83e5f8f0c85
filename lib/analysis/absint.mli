(** Certification checks over a managed graph.

    The managed graph is a DAG with fixed input levels, so every fact is
    one fold over {!Fhe_ir.Dfg.topo_order} (liveness: the reverse order):

    - {b level/scale} — an independent re-derivation of the Table 1
      scale algebra, one (scale, level) point per node, proving every
      ciphertext fits its level's modulus capacity and no SMO underflows
      level 0, cross-checked against {!Fhe_ir.Scale_check.infer};
    - {b noise fit} — {!Fhe_ir.Noise_check.analyse}'s worst-case bound,
      checked against the RNS modulus chain at every node;
    - {b liveness} — def-use liveness sets, the declarative
      specification that {!Fhe_ir.Liveness} schedules and
      {!Fhe_ir.Interp.Session} queries are validated against.

    Each check returns {!Diag} diagnostics ([[]] means proved). *)

val derive : Ckks.Params.t -> Fhe_ir.Dfg.t -> Fhe_ir.Scale_check.info array
(** Per node id, the (scale, level, is_ct) point the Table 1 rules
    derive in one topological pass, with the clamping of
    {!Fhe_ir.Scale_check.infer}'s lenient propagation.  Constants read as
    level-0 plaintexts at the waterline (their consumers decide their
    encoding scale); nodes the pass never reaches (dead ones) read the
    same. *)

val check_levels :
  scales:Fhe_ir.Scale_check.info array -> Ckks.Params.t -> Fhe_ir.Dfg.t -> Diag.t list
(** Prove capacity and level safety.  [scales] is
    {!Fhe_ir.Scale_check.infer}'s result on the same graph, computed once
    by the caller and shared with {!check_noise}.  Rules:
    ["absint-capacity"] (a derived scale overflows the modulus at its
    derived level), ["absint-level"] (an SMO's operand is at level 0),
    ["absint-diverged"] (a concrete [scales] ciphertext entry differs from
    the derived point — an analysis bug, never a graph bug). *)

val encoding_slack_bits : float
(** Headroom allowed on top of the scaled signal (sign and rounding). *)

val check_noise :
  scales:Fhe_ir.Scale_check.info array -> Ckks.Params.t -> Fhe_ir.Dfg.t -> Diag.t list
(** Check {!Fhe_ir.Noise_check.analyse}'s per-node estimate (default
    magnitudes) against the modulus chain.  An error when an estimate is
    NaN (["absint-noise-nan"]).  Cannot-prove findings are warnings: one
    graph-level ["absint-noise-overflow"] summarising the ciphertexts
    whose worst-case [|value| + noise] at scale [2^scale_bits] cannot be
    shown to fit the modulus chain [q0 * q^level] (the bound is loose on
    deep circuits — scale-capacity fit is the {!check_levels}
    invariant), and ["absint-precision"] when an output's noise bound
    reaches its signal bound.  [scales] is as for {!check_levels}. *)

module Int_set : Set.S with type elt = int

type liveness = {
  live_in : Int_set.t array;
      (** [live_in.(id)]: ciphertexts (other than [id]'s own result)
          that node [id] or some transitive user of anything it feeds
          still needs — the values live just before [id] in any valid
          schedule. *)
  live_out : Int_set.t array;
      (** [live_out.(id)]: union of the users' [live_in] — the values
          def-use liveness keeps alive after [id]. *)
}

val liveness : Fhe_ir.Dfg.t -> liveness
(** Def-use liveness, one fold in reverse topological order.  Output
    persistence is not modelled (a value appears only while some consumer
    still needs it), so these sets are a lower bound on any schedule-based live set —
    {!Fhe_ir.Liveness} and {!Fhe_ir.Interp.Session.live_cts} must contain
    them, which is exactly what the cross-validation tests assert. *)
