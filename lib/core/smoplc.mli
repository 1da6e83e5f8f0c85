(** SMOPLC — optimal intra-region SMO placement via min-cut (Algorithm 4).

    Given a region whose multiplications execute at [level], SMOPLC finds
    where to insert the rescale so that the region's total latency is
    minimal.  Every region edge [(n, m)] is weighted with the rescale cost
    after [n] plus the cumulative latency increase of running [n] and its
    in-region predecessors at [level] instead of [level - 1], divided by
    [n]'s out-degree (one shared rescale node serves all of [n]'s cut
    successors).  A super-source feeds the region's entry nodes (the
    multiplications) with infinite capacity; live-out producers connect to
    a super-sink with finite capacity so that rescaling at the region's
    end remains a candidate.  Infinite reverse arcs force the source side
    to be closed under predecessors, guaranteeing that every path from a
    multiplication to a live-out crosses the cut exactly once.

    Edges from [Mul_cc] to its mandatory [Relin] are uncuttable.

    The solve reads only the region's {!Region.shape}, so regions of one
    shape share one cut, named by slot.  Only the capacities depend on
    [level], so a solve has two steps.  The shape's {e template} —
    members, entry flags, in-region predecessors, out-degrees and the arc
    list in insertion order, each arc naming the member whose weight caps
    it or marked infinite — is built once per shape.  Each
    [(shape, level)] solve then computes the weights, adds the template's
    arcs to a fresh {!Graphlib.Maxflow} network and runs one min-cut, so
    cuts and certificates do not depend on whether the template was fresh
    or reused. *)

type memo
(** Per-compile memo: templates by shape and cuts by [(shape, level)].
    {!Region_eval.cache} owns one; nothing is kept between compiles. *)

val create_memo : unit -> memo

val cut : ?memo:memo -> Region.shape -> level:int -> Cut.t
(** The min-cut of a shape at [level], naming slots (see {!Cut.relabel}).
    A solve counts one [smoplc.cuts]; a [(shape, level)] already in
    [memo] returns the stored cut without counting.
    @raise Invalid_argument on a shape without ciphertext members or
    [level < 1]. *)

val run : ?memo:memo -> Region.t -> region:int -> level:int -> Cut.t
(** {!cut} of the region's shape, relabelled to node ids. *)

val cost_of : Region.slot -> level:int -> float
(** A slot's freq-weighted Table 2 latency (ms) at [level]; [0.] for an
    op without a cost (inputs, constants).  {!Region_eval} prices
    regions with it too. *)
