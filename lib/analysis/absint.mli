(** Certification's noise check over a managed graph.

    {!Fhe_ir.Noise_check.analyse}'s worst-case bound, checked against the
    RNS modulus chain at every live ciphertext.  The level and capacity
    proof is {!Verify.run}'s strict Table 1 rules; this check only judges
    noise.  Returns {!Diag} diagnostics ([[]] means proved). *)

val check_noise : Ckks.Params.t -> Fhe_ir.Dfg.t -> Diag.t list
(** Check {!Fhe_ir.Noise_check.analyse}'s per-node estimate (default
    magnitudes, over {!Fhe_ir.Scale_check.infer}'s scales) against the
    modulus chain.  An error when an estimate is NaN
    (["absint-noise-nan"]).  Cannot-prove findings are warnings: one
    graph-level ["absint-noise-overflow"] summarising the ciphertexts
    whose worst-case [|value| + noise] at scale [2^scale_bits] cannot be
    shown to fit the modulus chain [q0 * q^level] (the bound is loose on
    deep circuits — scale-capacity fit is {!Verify.run}'s ["scale"]
    invariant), and ["absint-precision"] when an output's noise bound
    reaches its signal bound. *)
