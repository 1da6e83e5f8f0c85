(** BTSMGR — minimal-level bootstrapping management across the DFG
    (Algorithm 2).

    Dynamic programming over the region sequence.  A segment [(src, dst)]
    models: the ciphertexts enter [src] with just enough levels for its
    rescales, rescale to level 0, bootstrap to
    [l_bts = |RescalingRegions \ {src}|] — the {e minimal} level that
    reaches [dst] at level 0 — and descend one level per rescaling region
    of [(src, dst]].  Segment latency sums the {!Region_eval} cost of
    every region in [[src, dst)] (the [dst] region is excluded: it becomes
    the source region of the following segment).  The first segment may
    run on the fresh input levels without a bootstrap.

    Setting [min_level_bts = false] forces every bootstrap to [l_max],
    reproducing the elevation policy of Fhelipe and DaCapo (the
    [ReSBM_max] substitution variant). *)

type config = {
  min_level_bts : bool;
  smo_mode : Region_eval.smo_mode;
  bts_mode : Region_eval.bts_mode;
  price_transits : bool;
      (** Charge the DP the exact repair cost of ciphertexts flying over a
          bootstrap boundary below their consumer's level (default true;
          disabling it is an ablation — boundaries then ignore liveness). *)
}

val resbm_config : config
(** Minimal-level bootstrapping with min-cut SMO and bootstrap placement. *)

type bts_action = {
  target : int;  (** Bootstrap target level. *)
  cut : Cut.t option;  (** [None]: directly after the rescale chain. *)
  subgraph : int list;
}

type region_action = {
  rescales : int;
  entry_level : int;
  entry_scale : int;
  smo_cut : Cut.t option;  (** [None] when [rescales = 0]. *)
  bts : bts_action option;
}

type plan = {
  actions : region_action array;  (** Indexed by region. *)
  segments : (int * int) list;  (** Chosen [(src, dst)] pairs in order. *)
  dp_latency_ms : float;  (** The DP objective [minLAT] plus the final
                              region's cost (before legalisation). *)
}

exception No_plan of string

val plan :
  ?config:config ->
  ?fuel:Fuel.t ->
  ?segment_scan:[ `Full | `Adjacent ] ->
  ?jobs:int ->
  Region.t ->
  Ckks.Params.t ->
  plan
(** [fuel] (default unlimited) is spent one unit per DP segment evaluation
    and one per min-cut inside {!Region_eval} — the budget that lets
    {!Driver.compile_robust} bound a tier's planning work.

    [segment_scan] (default [`Full]) controls the DP's destination scan:
    [`Adjacent] restricts every segment to one region ([dst = src + 1]),
    the linear-time eager strategy of the last fallback tier — no search,
    a bootstrap at every boundary.

    [jobs] is ignored: planning is single-domain.  The parameter exists
    only so existing [~jobs:1] callers still compile.  The scan is
    deterministic for every [fuel] budget: the same budget exhausts at the
    same step.

    @raise No_plan when no feasible bootstrapping plan exists (e.g. a
    single region consumes more than [l_max] levels).
    @raise Fuel.Exhausted when the step budget runs out. *)
