(** Compilation report — the measurements behind Tables 3–5 and Figures
    6–7, plus the per-phase profile behind the perf trajectory. *)

type certificate_entry = {
  ce_pass : string;  (** ["smoplc"] or ["btsplc"]. *)
  ce_region : int;
  ce_cert : Graphlib.Maxflow.certificate;
  ce_node_of : int array;
      (** Flow-network node -> DFG node id of the graph the placement ran
          on ([-1] for super source/sink); see {!Cut.t.node_of}.  This is
          what lets {!Explain} read the certificate's saturated arcs back
          as DFG edges and re-solve counterfactuals per bootstrap. *)
}

type t = {
  manager : string;
  compile_ms : float;  (** Wall-clock time of {!Driver.compile}. *)
  latency_ms : float;  (** Static Table 2 latency of the managed graph. *)
  stats : Fhe_ir.Stats.t;
  segments : (int * int) list;  (** Chosen bootstrap segments. *)
  repair_bootstraps : int;
  ms_opt_hoists : int;
      (** Modswitch hoists performed by {!Passes.Ms_opt} (0 unless the
          manager enables it). *)
  profile : Obs.Profile.t;
      (** Per-phase wall times and pipeline counters collected during the
          compile; see README "Profiling" for the JSON schema. *)
  region_count : int;  (** Regions of the partition the plan was built on. *)
  region_of : int array;
      (** Region attribution of the {e managed} graph, indexed by node id:
          original nodes keep their {!Region.t} assignment, management
          nodes inserted by plan application / legalisation / ms_opt
          inherit the region of the value they were inserted after; [-1]
          when unattributable.  This is what gives runtime traces
          ({!Fhe_ir.Interp.run}) their per-region tracks. *)
  fallbacks : (string * string) list;
      (** Planner tiers that failed before the one that produced this
          report, in attempt order, with the downgrade reason (e.g.
          [("resbm", "fuel exhausted in plan")]).  Empty for a first-try
          compile; non-empty means {!Driver.compile_robust} degraded and
          [manager] names the surviving tier. *)
  certificates : certificate_entry list;
      (** Min-cut optimality certificates collected from the plan, in
          region order.  Every min-cut the placement algorithms solved
          carries one; forced (non-optimised) cuts do not.  Checked by
          {!Analysis.Certify} through {!Driver.certify_diags} ([resbm
          certify]); preserved verbatim by {!Plan_cache}, so warm hits
          stay checkable. *)
}

val region_of_node : t -> int -> int
(** [region_of_node r id] is [r.region_of.(id)], or [-1] for an id outside
    the attribution — the bounds-checked [?region_of] every traced or
    supervised run of the managed graph takes. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Obs.Json.t
(** Machine-readable report: scalar fields, stats, and the full profile
    (spans, counters, series). *)
