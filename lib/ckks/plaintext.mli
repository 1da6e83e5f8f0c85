(** Encoded plaintexts: a slot vector quantised at a scale.

    Encoding maps a real vector [v] to integers [round (v * 2^scale_bits)];
    we keep the dequantised values plus the quantisation error bound, which
    feeds the evaluator's noise accounting. *)

type t = private {
  slots : float array;
  scale_bits : int;
  err : float;  (** Absolute bound on the per-slot encoding error. *)
}

val encode : scale_bits:int -> float array -> t

val re_encode : t -> scale_bits:int -> t
(** Re-encode the same logical values at another scale.  Models the
    compiler's freedom to pick the encoding scale of constants (e.g. AddCP
    encodes the plaintext at the ciphertext's scale). *)

val max_abs : t -> float
(** As {!Ciphertext.max_abs}. *)

val pp : Format.formatter -> t -> unit
