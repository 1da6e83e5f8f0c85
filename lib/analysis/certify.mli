(** Min-cut optimality certificates, independently re-checked.

    ReSBM's placements (SMOPLC, Algorithm 4; BTSPLC, Algorithm 5) come out
    of {!Graphlib.Maxflow} as cuts.  {!Graphlib.Maxflow.certificate}
    exports the final flow assignment alongside the cut; this module
    re-verifies the pair from scratch — without trusting Dinic — and, when
    every check passes, max-flow/min-cut LP duality proves the cut
    {e minimal}: any feasible s-t flow's value lower-bounds every s-t
    cut's capacity, so a saturated cut whose capacity equals a feasible
    flow's value meets the bound exactly.

    Checks and their rule ids:
    - ["cert-shape"] — node indices in range, side array well-sized;
    - ["cert-capacity"] — [0 <= flow <= cap] on every arc (finite flow);
    - ["cert-conservation"] — zero net flow at every non-terminal node;
    - ["cert-source-side"] — source on the source side, sink off it;
    - ["cert-closure"] — no infinite arc crosses the cut (the reverse
      arcs SMOPLC and BTSPLC give every finite arc make the source side closed
      under predecessors; an infinite crossing arc refutes both the cut
      and that closure);
    - ["cert-unsaturated"] — every finite source-to-sink crossing arc is
      saturated;
    - ["cert-backflow"] — no flow crosses the cut sink-to-source;
    - ["cert-flow-value"] — the source's net outflow equals the claimed
      value;
    - ["cert-duality"] — the crossing arcs' capacities sum to the claimed
      value (flow value = cut value, the LP duality equality);
    - ["cert-value"] / ["cert-cut-value"] — the claimed value is finite
      and, when [?value] is given, matches the placement's recorded cut
      value.

    All comparisons use a tolerance proportional to the cut value
    (capacities are cost sums divided by degrees, so exact float equality
    is not available). *)

val check :
  ?pass:string ->
  ?region:int ->
  ?value:float ->
  Graphlib.Maxflow.certificate ->
  Diag.t list
(** [check ?pass ?region ?value cert] re-verifies [cert], returning the
    refuting diagnostics sorted most severe first ([[]] means the cut is
    proved minimal).  [pass] (default ["maxflow"]) and [region] prefix
    every message so a refutation names the placement that produced the
    certificate; [value] cross-checks the placement's own recorded cut
    value against the certificate's. *)

val ok : Diag.t list -> bool
(** [ok (check ... cert)] — no error-severity refutation. *)
