(** Region-based DFG — [BuildRegionedDFG] of Section 4.1.

    The DFG is partitioned into regions of multiplicative depth exactly
    one: region [i > 0] opens with the multiplications at depth [i];
    region [0] holds the input ciphertexts.  The number of regions is the
    maximum multiplicative depth plus one, and the regions form a linear,
    data-dependent sequence.

    Assignment follows the paper's two traversals: a forward pass places
    every node in the earliest region consistent with its predecessors,
    then a backward pass sinks nodes into the latest region allowed by
    their successors (a node feeding a multiplication of region [j] must
    finish in region [j - 1]; a node feeding a non-multiplication of
    region [j] may sit in region [j] itself).  The backward pass is what
    prefers Figure 3b over Figure 3a: the off-critical-path [a1*x]
    multiplication sinks next to its use and executes at a lower level. *)

type t = private {
  dfg : Fhe_ir.Dfg.t;
  region_of : int array;  (** node id -> region index. *)
  regions : int array array;  (** region index -> member node ids, topo order. *)
  count : int;
  region_muls : int list array;  (** region index -> its multiplications, topo order. *)
  mul_cc : bool array;  (** region index -> holds a [Mul_cc]. *)
  mul_cp : bool array;  (** region index -> holds a [Mul_cp]. *)
}

val build : ?sink:bool -> Fhe_ir.Dfg.t -> t
(** [sink] (default true) enables the backward pass; disabling it keeps
    every node at its forward (earliest) region — the ablation of the
    Figure 3 placement choice.
    @raise Invalid_argument if the DFG fails {!Fhe_ir.Dfg.validate}. *)

val members : t -> int -> int array
(** Node ids of a region, in topological order. *)

val ct_members : t -> int -> int list
(** Ciphertext-producing members only (plaintext constants excluded). *)

val muls : t -> int -> int list
(** Multiplication nodes of a region, in topological order.  This and the
    two predicates below are computed once by {!build} and read in O(1). *)

val has_mul_cc : t -> int -> bool
val has_mul_cp : t -> int -> bool

val live_out : t -> int -> int list
(** Members with a consumer outside the region or listed as DFG outputs. *)

val pp : Format.formatter -> t -> unit
