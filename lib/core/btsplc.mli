(** BTSPLC — optimal intra-region bootstrap placement via min-cut
    (Algorithm 5).

    Operates on the level-0 portion of a region: the nodes below the
    rescale cut chosen by SMOPLC (or the whole region when no rescale was
    needed).  The construction mirrors SMOPLC but runs in reverse: placing
    the bootstrap {e early} (right after the rescale) makes every
    downstream node execute at the bootstrap target level [l_bts] instead
    of level 0, so edge [(m, n)] is weighted with the bootstrap cost
    before [n] plus the cumulative latency increase of [n] and its
    in-subgraph successors at [l_bts] versus level 0, divided by [n]'s
    in-degree.  Bootstrapping at the region's end (after the live-out
    producers) is the zero-increase baseline.

    As in {!Smoplc}, a solve has two steps.  The {e template} of a
    [(shape, subgraph)] pair owns its {!Graphlib.Maxflow} network, arcs
    added once in Algorithm 5's order.  Its topology does not depend on
    the target: an arc is infinite exactly when its head is a [Relin], its
    tail a [Mul_cc] or its head has no inputs at all.  Each target then
    refills the capacities ({!Graphlib.Maxflow.set_capacity}) and runs one
    min-cut from zero flow, so cuts and certificates are bit for bit those
    of a fresh network. *)

type memo
(** Per-compile memo: templates by [(shape, subgraph)] and their cuts by
    target.  {!Region_eval.cache} owns one; nothing is kept between
    compiles. *)

val create_memo : unit -> memo

val solve : ?memo:memo -> Region.shape -> lbts:int -> subgraph:int list -> Cut.deferred
(** The min-cut of a shape's level-0 [subgraph] (member slots, topological
    order) at target [lbts], naming slots (see {!Cut.relabel}); producer
    helper nodes map to the producing slot.  The certificate is deferred
    as in {!Smoplc.solve}.  A solve counts one [btsplc.cuts]; a
    [(shape, subgraph, lbts)] already in [memo] returns the stored cut
    without counting.
    @raise Invalid_argument on an empty subgraph or [lbts < 1]. *)

val cut : ?memo:memo -> Region.shape -> lbts:int -> subgraph:int list -> Cut.t
(** {!solve}, certified. *)

val run : Region.t -> lbts:int -> subgraph:int list -> Cut.t
(** {!cut} over node ids: [subgraph] lists level-0 member ids of one
    region (topological order); the cut names node ids. *)
