(** Data-flow graphs of FHE programs.

    Nodes are numbered densely in creation order; edges are implied by the
    [args] arrays (use-def) with maintained use lists (def-use).  As in the
    FHE compilers the paper builds on, the graph is a static circuit: no
    control flow, but a node may carry a [freq] multiplier standing for a
    rolled loop with a compile-time trip count (Section 4.1 keeps loops of
    multiplicative depth one rolled and scales their latency by the trip
    count). *)

type node = private {
  id : int;
  mutable kind : Op.kind;
  mutable args : int array;
  mutable users : int list;  (** def-use: ids of nodes consuming this one. *)
  mutable freq : int;
  mutable dead : bool;
}

type t

val create : unit -> t

val node_count : t -> int
(** Total ids allocated, including dead nodes. *)

val node : t -> int -> node

val live_nodes : t -> node list
(** All non-dead nodes in id order. *)

val outputs : t -> int list
val set_outputs : t -> int list -> unit

(** {1 Builders}

    All builders return the id of the created node.  Binary builders check
    ciphertext/plaintext positions.  [mul_cc] appends the mandatory
    relinearisation and returns the relin node. *)

val input : t -> ?level:int -> ?scale_bits:int -> string -> int
val const : t -> string -> int
val add_cc : t -> ?freq:int -> int -> int -> int
val add_cp : t -> ?freq:int -> int -> int -> int
val mul_cc : t -> ?freq:int -> int -> int -> int
val mul_cc_raw : t -> ?freq:int -> int -> int -> int
(** [Mul_cc] without the relin — for tests that exercise the validator. *)

val mul_cp : t -> ?freq:int -> int -> int -> int
val rotate : t -> ?freq:int -> int -> int -> int
val relin : t -> ?freq:int -> int -> int
val rescale : t -> ?freq:int -> int -> int
val modswitch : t -> ?freq:int -> int -> int
val bootstrap : t -> ?freq:int -> target_level:int -> int -> int

(** {1 Mutation} *)

val insert_after : t -> tail:int -> heads:int list -> Op.kind -> int
(** [insert_after g ~tail ~heads kind] creates a node [n'] with argument
    [tail] and frequency [tail.freq], and rewires every occurrence of
    [tail] in the [args] of each node in [heads] to [n'].  If [heads] is
    empty the node is created as a new user of [tail] without rewiring
    (used to tap live-out edges).  Returns [n']. *)

val wrap_operand : t -> user:int -> arg_index:int -> Op.kind -> int
(** Interpose a new node on one specific operand position of [user]. *)

val set_arg : t -> user:int -> arg_index:int -> int -> unit
(** Retarget one operand of [user], maintaining use lists. *)

val replace_uses : t -> old_id:int -> new_id:int -> unit
(** Redirect every use of [old_id] (args and outputs) to [new_id]. *)

val kill : t -> int -> unit
(** Mark a node dead.  It must have no remaining users and not be an
    output. *)

(** {1 Queries} *)

val preds : t -> int -> int list
(** Unique argument ids, in argument order. *)

val succs : t -> int -> int list
(** User ids, each once (use lists never hold a duplicate), oldest use
    first. *)

exception Cycle of int
(** A directed cycle through the arguments; carries a witness node. *)

val topo_order : t -> int list
(** Live nodes in topological (def-before-use) order, a function of the
    graph alone: Kahn's algorithm with a FIFO queue over one edge per
    distinct argument of each live node.  Nodes with no such edge in
    (dead ones included, dropped from the result) enter in ascending id,
    and a node's consumers are released in ascending id.  Allocates its
    work arrays and the result only.
    @raise Cycle on a cyclic graph, naming the least node left unsorted. *)

val validate : ?acyclic:bool -> t -> (unit, string list) result
(** Structural well-formedness: args in range and alive, every arg's use
    list naming its user exactly once, ct/pt positions respected, outputs
    alive and ciphertext, acyclic, [Mul_cc] consumed only by [Relin].
    [~acyclic:true] skips the cycle check: the caller has sorted the
    graph ({!topo_order} returned), which proves it acyclic. *)

val copy : t -> t

type exported_node = {
  ex_kind : Op.kind;
  ex_args : int array;
  ex_freq : int;
  ex_dead : bool;
}
(** One node of a structural snapshot: everything that defines the graph
    except the derived use lists. *)

val export : t -> exported_node array * int list
(** Structural snapshot [(nodes, outputs)], nodes indexed by id.  Two
    graphs with equal exports are the same program (use lists are derived
    state and deliberately excluded) — the equality used by the plan
    cache and the bit-identity tests. *)

val import : exported_node array * int list -> t
(** Rebuild a graph from {!export}: identical ids, kinds, args, freqs and
    outputs; use lists are recomputed (set-equal to the original's, order
    within a node's list may differ).  Forward argument references are
    accepted — managed graphs have them after plan application rewires
    consumers onto appended SMO/bootstrap nodes.
    @raise Invalid_argument when an arg or output id is outside the node
    array. *)

val pp : Format.formatter -> t -> unit
