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
    producers) is the zero-increase baseline. *)

val cut : Region.shape -> lbts:int -> subgraph:int list -> Cut.t
(** The min-cut of a shape's level-0 [subgraph] (member slots, topological
    order), naming slots (see {!Cut.relabel}); producer helper nodes map
    to the producing slot.
    @raise Invalid_argument on an empty subgraph or [lbts < 1]. *)

val run : Region.t -> lbts:int -> subgraph:int list -> Cut.t
(** {!cut} over node ids: [subgraph] lists level-0 member ids of one
    region (topological order); the cut names node ids. *)
