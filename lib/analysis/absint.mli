(** Concrete abstract-interpretation analyses.

    Instantiations of the generic {!Dataflow} engine that certify managed
    graphs without executing them:

    - {b level/scale intervals} — a sound interval abstraction of the
      Table 1 scale algebra, proving every ciphertext fits its level's
      modulus capacity and no SMO underflows level 0;
    - {b noise bounds} — a sound over-approximation of {!Fhe_ir.Noise_check}'s
      RMS model (every rule is monotone, so upper bounds propagate to
      upper bounds), proving the scaled signal plus noise fits the RNS
      modulus chain at every node;
    - {b liveness} — backward def-use liveness sets, the declarative
      specification that {!Fhe_ir.Liveness} schedules and
      {!Fhe_ir.Interp.Session} queries are validated against.

    Each check returns {!Diag} diagnostics ([[]] means proved) and both
    interval and noise checks cross-validate the abstraction against the
    corresponding concrete propagation (rule ["absint-diverged"]), so a
    bug in either side surfaces as a refutation rather than silence. *)

(** One node's (scale, level) abstraction: closed integer intervals. *)
type interval = { s_lo : int; s_hi : int; l_lo : int; l_hi : int; is_ct : bool }

type scale_value = Bot | Iv of interval

module Scale_domain : Dataflow.DOMAIN with type t = scale_value
module Scale_solver : module type of Dataflow.Make (Scale_domain)

val solve_intervals : Ckks.Params.t -> Fhe_ir.Dfg.t -> Scale_solver.result
(** The raw interval fixpoint (exposed for tests and tooling). *)

val check_levels :
  ?scales:Fhe_ir.Scale_check.info array -> Ckks.Params.t -> Fhe_ir.Dfg.t -> Diag.t list
(** Prove capacity and level safety.  [scales] supplies a precomputed
    {!Fhe_ir.Scale_check.infer} result to cross-validate against (it is
    recomputed when absent — pass it when the caller also runs
    {!check_noise} so the concrete pass happens once).
    Rules: ["absint-capacity"] (a scale
    interval's upper bound overflows the modulus at the level interval's
    lower bound), ["absint-level"] (an SMO's operand level interval
    reaches 0), ["absint-bottom"] (unreachable ciphertext),
    ["absint-diverged"] (the concrete {!Fhe_ir.Scale_check.infer} value
    escapes the abstraction — an analysis bug, never a graph bug). *)

(** One node's noise abstraction: upper bounds on slot magnitude and RMS
    error, mirroring {!Fhe_ir.Noise_check.info}. *)
type noise_bound = { mag : float; noise : float }

type noise_value = NBot | Nv of noise_bound

module Noise_domain : Dataflow.DOMAIN with type t = noise_value
module Noise_solver : module type of Dataflow.Make (Noise_domain)

val encoding_slack_bits : float
(** Headroom allowed on top of the scaled signal (sign and rounding). *)

val check_noise :
  ?input_magnitude:float ->
  ?magnitude_cap:float ->
  ?const_magnitude:(string -> float) ->
  ?scales:Fhe_ir.Scale_check.info array ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Diag.t list
(** Certify the noise analysis itself: errors when the abstraction fails
    to dominate the concrete {!Fhe_ir.Noise_check.analyse} estimate at
    some node (["absint-diverged"]), when a bound is NaN
    (["absint-noise-nan"]) or when a ciphertext is never reached
    (["absint-bottom"]).  Cannot-prove findings are warnings: one
    graph-level ["absint-noise-overflow"] summarising the ciphertexts
    whose worst-case [|value| + noise] at scale [2^scale_bits] cannot be
    shown to fit the modulus chain [q0 * q^level] (the bound is a loose
    over-approximation on deep circuits — scale-capacity fit is the
    {!check_levels} invariant), and ["absint-precision"] when an
    output's noise bound reaches its signal bound.  The optional
    parameters match {!Fhe_ir.Noise_check.analyse}. *)

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
(** Backward liveness over def-use chains.  Output persistence is not
    modelled (a value appears only while some consumer still needs it),
    so these sets are a lower bound on any schedule-based live set —
    {!Fhe_ir.Liveness} and {!Fhe_ir.Interp.Session.live_cts} must contain
    them, which is exactly what the cross-validation tests assert. *)
