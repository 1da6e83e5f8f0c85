(** Multiplicative-depth analysis.

    The depth of a node is the largest number of multiplications on any
    path from an input to it (inclusive).  SMOs and bootstraps are
    transparent.  The region partition (Section 4.1) keys off this: the
    multiplication nodes at depth [i] open region [i]. *)

val per_node : ?order:int array -> Dfg.t -> int array
(** Depth per node id (0 for dead nodes).  [order] is {!Dfg.topo_order}
    as an array when the caller has sorted the graph already (default:
    sorted here). *)

val max_depth : ?order:int array -> Dfg.t -> int
