(** Latency evaluation of a region under a candidate management plan.

    Produces the [L] terms accumulated by Algorithm 2 (line 15): the sum
    of the region's operation latencies once a rescaling plan and, for a
    source region, a bootstrap plan have been applied.  Nodes above the
    rescale cut run at the entry level, nodes between the cuts at
    [entry - rescales], and nodes below the bootstrap cut at the bootstrap
    target.  Results are memoised — the paper's "caching min-cut results"
    — by region {!Region.shape} rather than region index: the DP revisits
    regions once per candidate entry level, and networks repeat one block,
    so each (shape, entry level, rescales, bts, modes) is solved once per
    compile and mapped back to each region's node ids through
    {!Region.slots}.  Nothing is shared across compiles, so a compile's
    work counters and plan depend only on its inputs.

    Placement {e modes} select how the cuts are chosen, which is how the
    paper's substitution variants and baselines are realised on one
    engine:

    - rescale: [Smo_min_cut] (SMOPLC), [Smo_eva] (EVA's waterline —
      rescale immediately after every multiplication unit), [Smo_pars]
      (PARS — lazy rescale at the region's end);
    - bootstrap: [Bts_min_cut] (BTSPLC), [Bts_region_end] (Fhelipe and
      DaCapo — bootstrap the live-out ciphertexts of the region). *)

type smo_mode = Smo_min_cut | Smo_eva | Smo_pars
type bts_mode = Bts_min_cut | Bts_region_end

type result = {
  latency_ms : float;
  smo_cut : Cut.t option;
  bts_cut : Cut.t option;
      (** [None] while [bts] was requested means the level-0 subgraph was
          empty and the bootstrap goes directly after the rescale chain. *)
  bts_subgraph : int list;  (** Level-0 members used for bootstrap planning. *)
}

type cache
(** Per-compile memo, keyed by region shape and candidate plan, holding
    solutions that name slots.  One {!Btsmgr.plan} call creates and owns
    it. *)

val create_cache : unit -> cache

exception Infeasible of string

val eval :
  cache ->
  Region.t ->
  smo_mode:smo_mode ->
  bts_mode:bts_mode ->
  region:int ->
  entry_level:int ->
  rescales:int ->
  bts:int option ->
  result
(** The region's solution under a candidate plan, naming node ids.
    @raise Infeasible when the region cannot run at the requested level
    (e.g. rescaling at level 0). *)

val latency :
  cache ->
  Region.t ->
  smo_mode:smo_mode ->
  bts_mode:bts_mode ->
  region:int ->
  entry_level:int ->
  rescales:int ->
  bts:int option ->
  float
(** [(eval ...).latency_ms] without mapping the cuts back to node ids —
    what the DP's inner loop reads. *)
