(** Encoded plaintexts: a slot vector quantised at a scale.

    Encoding maps a real vector [v] to integers [round (v * 2^scale_bits)];
    we keep the dequantised values plus the quantisation error bound, which
    feeds the evaluator's noise accounting. *)

type t = private {
  slots : float array;
  scale_bits : int;
  err : float;  (** Absolute bound on the per-slot encoding error. *)
  max_abs : float;
      (** {!max_abs_slots} of [slots], taken once by {!encode}: a
          constant is encoded once per program and multiplied in every
          batch. *)
}

val encode : scale_bits:int -> float array -> t

val re_encode : t -> scale_bits:int -> t
(** Re-encode the same logical values at another scale.  Models the
    compiler's freedom to pick the encoding scale of constants (e.g. AddCP
    encodes the plaintext at the ciphertext's scale). *)

val max_abs : t -> float
(** As {!Ciphertext.max_abs}: the [max_abs] field. *)

val max_abs_slots : float array -> float
(** The largest [|v|] of a slot vector, bit for bit
    [Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0]: the
    kernel behind {!Ciphertext.max_abs}, for payloads not yet
    encoded. *)

val pp : Format.formatter -> t -> unit
