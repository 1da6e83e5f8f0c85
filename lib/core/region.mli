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

(** {1 Region shapes}

    A region's {e shape} is the id-free content the planners read: its
    {e slots} are the members in topological order, then the external
    producers the members read, in ascending id order.  Regions with equal
    shapes have equal cuts, certificates and latencies slot for slot, so
    the planner solves each shape once and maps the solution back to node
    ids through {!slots}. *)

type slot = private {
  kind : Fhe_ir.Op.kind;  (** [Input]/[Const] names erased. *)
  freq : int;
  preds : int list;
      (** Members: {!Fhe_ir.Dfg.preds} as slots, in order.  [[]] for an
          external producer. *)
  succs : int list;
      (** Members: in-region {!Fhe_ir.Dfg.succs} as slots, in order.  [[]]
          for an external producer. *)
  live_out : bool;  (** A DFG output or consumed outside the region. *)
}

type shape = private {
  members : int;  (** Slots [0 .. members - 1] are the members. *)
  slots : slot array;
  hash : int;  (** Precomputed content hash. *)
}

module Shape : sig
  type t = shape

  val equal : t -> t -> bool
  val hash : t -> int
end

module Shape_tbl : Hashtbl.S with type key = shape

type t = private {
  dfg : Fhe_ir.Dfg.t;
  region_of : int array;  (** node id -> region index. *)
  regions : int array array;  (** region index -> member node ids, topo order. *)
  count : int;
  region_muls : int list array;  (** region index -> its multiplications, topo order. *)
  mul_cc : bool array;  (** region index -> holds a [Mul_cc]. *)
  mul_cp : bool array;  (** region index -> holds a [Mul_cp]. *)
  shapes : shape array;  (** region index -> shape; equal shapes are shared. *)
  shape_ids : int array;
      (** region index -> index of its interned shape, numbered densely
          from 0 in region order: regions have equal shapes exactly when
          their indices are equal. *)
  slot_ids : int array array;  (** region index -> slot -> node id. *)
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

val shape : t -> int -> shape
(** The region's shape, computed once by {!build}. *)

val slots : t -> int -> int array
(** Slot -> node id of a region: [slots t r] maps positions in
    [shape t r] back to the DFG. *)

val muls : t -> int -> int list
(** Multiplication nodes of a region, in topological order.  This and the
    two predicates below are computed once by {!build} and read in O(1). *)

val has_mul_cc : t -> int -> bool
val has_mul_cp : t -> int -> bool

val live_out : t -> int -> int list
(** Members with a consumer outside the region or listed as DFG outputs. *)

val pp : Format.formatter -> t -> unit
