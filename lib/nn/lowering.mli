(** Lowering of model specifications to FHE data-flow graphs.

    The packing model is the paper's: one image per ciphertext, SIMD
    slots.  A convolution becomes [sum_t rotate(x, o_t) * w_t] with the
    output-channel loop rolled into node frequencies; the approximate ReLU
    becomes the composite polynomial of {!Poly_approx} (powers by repeated
    ciphertext squaring, coefficient multiplications sinking to the final
    combination region); pooling and fully connected layers are
    rotate-and-sum reductions.

    Constants are symbolic: every weight/bias/mask is a [Const] node whose
    payload is generated deterministically from its name ({!resolver}), so
    graphs stay value-free and runs are reproducible. *)

type t = {
  dfg : Fhe_ir.Dfg.t;
  model : Model.t;
  input_name : string;
}

val lower : Model.t -> t
(** @raise Invalid_argument if the model produces an invalid graph. *)

val resolver : t -> dim:int -> string -> float array
(** Deterministic constant payloads: activation-polynomial coefficients
    and blend constants by value; weights, biases and masks pseudo-random
    from the constant's name, scaled to keep activations within the
    [[-1, 1]] domain of the polynomial approximation.  Understands the
    folded names produced by {!Passes.Const_fold}.  Each resolver
    memoises its payloads per name: asking twice returns the same array,
    which callers must not mutate.  A resolver is not safe to share
    between domains. *)

val const_magnitude : (string -> float array) -> string -> float
(** [const_magnitude consts name] is the largest absolute value of
    [consts name]'s payload: the [~const_magnitude] a noise analysis
    reads from a {!resolver}. *)
