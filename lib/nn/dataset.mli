(** Synthetic classification dataset (substitution for CIFAR-10).

    Deterministic pseudo-random "images" packed in SIMD slot vectors with
    values in [[-1, 1]].  Labels come from the model's own plain-precision
    class scores perturbed relative to their spread, so the unencrypted
    model scores high but below 100% (like a trained network on held-out
    data) and the gap between the unencrypted and encrypted columns
    isolates exactly the error introduced by RNS-CKKS scale management
    and noise — the quantity the paper's RQ3 validates. *)

type sample = { image : float array; label : int }

val images : ?seed:int64 -> dim:int -> count:int -> unit -> float array array
(** Deterministic images with values in [[-1, 1]]. *)

val labelled :
  ?seed:int64 ->
  dim:int ->
  count:int ->
  classes:int ->
  infer:(float array -> float array) ->
  unit ->
  sample array
(** [infer] is the plain reference inference; the label of each image is
    the argmax of its class scores after adding Gaussian noise of 0.08
    times the score spread. *)

val argmax : classes:int -> float array -> int
(** Index of the largest of the first [classes] slots. *)
