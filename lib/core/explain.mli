(** Plan explainability: cost attribution, per-bootstrap rationale mined
    from min-cut optimality certificates, and a renumbering-stable
    structural plan digest.

    This is the graph-aware producer half of the explain stack; the
    generic rendering half (waterfall folding, JSON diffing) is
    {!Obs.Explain}.  Surfaced by [resbm explain], and embedded per bench
    cell as [plan_digest] so [resbm bench-diff] gates plan drift and can
    explain a metric change at the plan level. *)

val labels : Fhe_ir.Dfg.t -> int64 array
(** Canonical content labels, indexed by node id: [label(n)] hashes the
    node's kind, frequency and the labels of its arguments (in order), so
    two nodes agree iff their entire upstream computations are
    structurally identical.  Invariant under node renumbering — the
    anchor of every digest key, rendered with {!Fnv.hex}. *)

val attribution :
  ?top:int -> Ckks.Params.t -> managed:Fhe_ir.Dfg.t -> Report.t -> Obs.Explain.waterfall
(** Fold the frequency-weighted Table 2 cost of every managed-graph node
    into a region -> op-kind -> node waterfall.  The total is
    {!Fhe_ir.Latency.total} over the same analysis, so the waterfall
    attributes 100% of the predicted latency; [shares] carry the
    bootstrap / rescale / modswitch headline split.  [top] bounds the
    individually-listed nodes per bucket (default 5, remainder folded,
    never dropped). *)

type counterfactual = {
  cf_value : float;
      (** Value of the cheapest cut that avoids this bootstrap's arcs;
          [infinity] when no alternative exists (the placement is forced). *)
  cf_delta : float;  (** [cf_value - cut value]: the cost of moving it. *)
  cf_anchors : int list;
      (** The next-best placement: DFG nodes the alternative cut would
          bootstrap after. *)
}

type rationale = {
  ra_bootstrap : int;  (** Managed-graph bootstrap node id. *)
  ra_anchor : int;
      (** Original-graph node the bootstrap was inserted after (the cut
          tail or boundary producer); [-1] if unresolvable. *)
  ra_region : int;  (** Region of the owning cut (or of the node itself). *)
  ra_target : int;  (** Bootstrap target level. *)
  ra_cost_ms : float;  (** Freq-weighted Table 2 cost of this bootstrap. *)
  ra_cut_value : float option;  (** The region's certified min-cut value. *)
  ra_saturated : (int * int) list;
      (** The certificate's saturated crossing arcs pinning this
          placement, as DFG (tail, head) pairs ([-1] = super source/sink). *)
  ra_counterfactual : counterfactual option;
  ra_note : string;  (** ["min-cut"], or why no certificate applies. *)
}

val rationales :
  Ckks.Params.t ->
  orig_nodes:int ->
  managed:Fhe_ir.Dfg.t ->
  Report.t ->
  rationale list
(** One rationale per live bootstrap of the managed graph, in node-id
    order.  [orig_nodes] is the node count of the graph the planner ran
    on (management nodes have ids [>= orig_nodes]); each bootstrap is
    anchored back to its original insertion point, matched to the
    {!Report.certificate_entry} whose cut crosses that anchor, and — when
    matched — given a counterfactual by re-solving the region's min-cut
    with its arcs forbidden ({!Graphlib.Maxflow.of_certificate}). *)

val digest : Ckks.Params.t -> managed:Fhe_ir.Dfg.t -> Report.t -> Obs.Json.t
(** Structural plan digest, stable under node renumbering: headline
    planner metrics, regions keyed by content signature (sorted member
    labels) with level/scale histograms, placement label lists and
    certified cut values, and per-management-node levels/scales keyed by
    content label.  Floats are rounded to a microsecond so summation
    order cannot leak into the comparison.  Two digests are structurally
    equal ({!Obs.Explain.diff_json} returns []) iff the plans are the
    same up to node renumbering. *)

val pp_rationale : Fhe_ir.Dfg.t -> Format.formatter -> rationale -> unit
(** Render one rationale against the managed graph (for op-kind names). *)

val rationale_to_json : rationale -> Obs.Json.t
