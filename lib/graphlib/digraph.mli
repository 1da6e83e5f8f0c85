(** Mutable directed graphs over dense integer node identifiers.

    Nodes are created with {!add_node} and numbered [0, 1, 2, ...] in
    creation order.  Edges are unlabelled and may not be duplicated.  The
    structure is the substrate for the FHE data-flow graphs and for the
    per-region graphs handed to the min-cut placement algorithms. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty graph.  [capacity] pre-sizes internal tables. *)

val add_node : t -> int
(** Allocate a fresh node and return its identifier. *)

val add_nodes : t -> int -> unit
(** [add_nodes g n] allocates [n] fresh nodes. *)

val node_count : t -> int

val edge_count : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds the edge [u -> v].  Duplicate edges are ignored;
    self edges raise [Invalid_argument]. *)

val mem_edge : t -> int -> int -> bool

val succs : t -> int -> int list
(** Successors of a node, in insertion order. *)

val preds : t -> int -> int list
(** Predecessors of a node, in insertion order. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_edges : t -> (int -> int -> unit) -> unit

val transpose : t -> t
(** A fresh graph with every edge reversed. *)

val pp : Format.formatter -> t -> unit
