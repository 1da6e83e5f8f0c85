(** Latency evaluation of a region under a candidate management plan.

    Produces the [L] terms accumulated by Algorithm 2 (line 15): the sum
    of the region's operation latencies once a rescaling plan and, for a
    source region, a bootstrap plan have been applied.  Nodes above the
    rescale cut run at the entry level, nodes between the cuts at
    [entry - rescales], and nodes below the bootstrap cut at the bootstrap
    target.  Results are memoised — the paper's "caching min-cut results"
    — by region shape rather than region index: the DP revisits regions
    once per candidate entry level, and networks repeat one block, so
    each (shape, entry level, rescales, bts, modes) is solved once per
    compile and mapped back to each region's node ids through
    {!Region.slots}.  Within a solve, sets of slots (cut sides, the
    level-0 subgraph, cut tails) are byte marks walked in ascending slot
    order, the order every latency sum folds in.  Nothing is shared across compiles, so a compile's
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
(** Per-compile memo holding solutions that name slots.  One
    {!Btsmgr.plan} call creates and owns it.  Solutions sit in flat
    tables, one per region shape ({!Region.t.shape_ids}), placement modes
    and rescale count, indexed by entry level and bootstrap target; each
    table is allocated on first use, so a lookup hashes nothing.  Shape
    indices belong to one regioned graph: the first one a cache is asked
    about binds it, and asking about another raises [Invalid_argument].

    Cuts are kept with their certificates deferred ({!Cut.deferred}):
    {!latency} builds none, and {!eval} builds each distinct cut's
    certificate once, shared by every region whose solution names it.
    The cache also holds the SMOPLC memo (by shape and entry level) and
    the BTSPLC memo (by shape, level-0 subgraph and target), so a BTSPLC
    cut already solved counts no [btsplc.cuts]. *)

val create_cache : Ckks.Params.t -> cache
(** A cache for entry levels and bootstrap targets in
    [[0, max 1 (max l_max input_level)]], the range {!Btsmgr.plan} asks
    about.  A request outside that range raises [Invalid_argument],
    except that a negative entry level or more rescales than the entry
    level is solved uncached (and raises {!Infeasible} unless the region
    has nothing to run). *)

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
