(** Latency oracle for RNS-CKKS operations.

    The data is Table 2 of the paper: CPU latencies (milliseconds) measured
    with ACElib at [N = 2^16] for levels 0, 2, ..., 16.  ReSBM's placement
    algorithms consult exactly this table (the [L\[n\]\[l\]] terms of
    Algorithms 4 and 5), so using the published numbers reproduces the
    optimisation landscape of the paper.  Odd levels are interpolated
    linearly; levels above 16 are extrapolated with the last segment's
    slope (needed only when experimenting with [l_max > 16]). *)

type op =
  | Add_cp
  | Add_cc
  | Mul_cp
  | Mul_cc
  | Rotate
  | Relin
  | Rescale
  | Bootstrap  (** Cost is a function of the {e target} level. *)
  | Modswitch  (** O(1); modelled as a fixed epsilon. *)

val all_ops : op list

val index : op -> int
(** The position of [op] in {!all_ops}: a dense index for per-op
    arrays. *)

val op_name : op -> string

val cost : op -> level:int -> float
(** Latency in milliseconds of [op] executed at ciphertext level [level]
    (for [Bootstrap], [level] is the target level).  Levels are clamped at
    0 from below.  Never returns a negative number. *)

val table_levels : int list
(** The level grid of Table 2: [0; 2; ...; 16]. *)
