(** Slot vectors, private to this library.

    The [float array] behind {!Ciphertext.slots}.  This module is listed
    in [private_modules], so code outside [lib/ckks] cannot name it: the
    type is abstract there, and only {!Ciphertext}'s accessors read it.
    The evaluator's kernels fill a fresh array once, when they build a
    ciphertext, and never write into it afterwards. *)

type t = float array

val max_abs : float array -> float
(** [max_abs a] is bit for bit
    [Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 a]: the
    largest [|v|] (+0.0 for an empty or all-zero array), or, when [a]
    holds a NaN, the last NaN's absolute value.  Four lanes in one pass;
    a NaN, an infinity or a sum of [|v|] beyond the float range sends
    it to a second pass, one compare loop in slot order. *)
