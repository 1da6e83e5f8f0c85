(** Cuts produced by the placement algorithms.

    A cut is a set of DFG edges on which an operation (rescale or
    bootstrap) will be inserted.  Edges are classified by which side of the
    region boundary they touch:

    - [Internal]: both endpoints are region members;
    - [Boundary_in]: the insertion point is on [head]'s incoming edges from
      outside the analysed subgraph (e.g. a bootstrap placed directly after
      the rescale that opens a source region);
    - [Boundary_out]: the insertion point is on [tail]'s edges to consumers
      outside the region (or on its way to the program outputs). *)

type edge =
  | Internal of { tail : int; head : int }
  | Boundary_in of { head : int }
  | Boundary_out of { tail : int }

type t = {
  edges : edge list;
  value : float;  (** Total weight of the minimum cut. *)
  sink_side : int list;  (** Region members strictly below the cut. *)
  cert : Graphlib.Maxflow.certificate option;
      (** Optimality certificate — the max-flow assignment whose value
          matches [value], exported by the min-cut solve and checkable
          with {!Analysis.Certify}.  [None] for cuts that are forced
          rather than optimised (EVA waterline, parallel-msc, region-end
          bootstraps), which have nothing to prove. *)
  node_of : int array;
      (** Flow-network node id -> DFG node id, for reading [cert] back in
          DFG terms ([-1] for the super source/sink; [[||]] for forced
          cuts, which carry no network).  BTSPLC's boundary-producer
          helper nodes map to the producing DFG node outside the
          subgraph. *)
}

val pp : Format.formatter -> t -> unit

val relabel : (int -> int) -> t -> t
(** [relabel f t] renames every node [t] names — edge endpoints,
    [sink_side] and the non-negative [node_of] entries — through [f].
    The value and the flow-indexed certificate are unchanged.  Maps a cut
    solved over a {!Region.shape}'s slots back to node ids. *)

(** {1 Deferred certificates}

    A planner prices many more cuts than it keeps.  A {e deferred} cut is
    a solved cut whose certificate is built on first demand: pricing reads
    {!uncertified}, and only the cuts a plan keeps pay for
    {!certified}. *)

type deferred

val defer : t -> (unit -> Graphlib.Maxflow.certificate) -> deferred
(** [defer cut certify]: [cut] without its certificate, and the function
    that builds it (called at most once). *)

val settled : t -> deferred
(** A cut with nothing to defer: both views are [cut] itself. *)

val uncertified : deferred -> t
(** The cut as solved, [cert = None] when its certificate is deferred. *)

val certified : deferred -> t
(** The cut with its certificate, built on the first call; every call
    returns the same physical cut, so the cuts a plan keeps share one
    certificate per solve. *)
