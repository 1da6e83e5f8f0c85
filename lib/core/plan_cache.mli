(** Content-addressed plan cache.

    A compile is a pure function of (program structure, CKKS parameters,
    manager configuration, cost model); {!key} hashes exactly those
    inputs (FNV-1a, 64-bit, canonical node order), so equal keys mean the
    sequential cold compile would produce a bit-identical plan and
    report.  Two tiers:

    - an in-memory LRU of compiled plans (graph + {!Report.t});
    - an optional on-disk tier (one JSON file per key under [dir]),
      surviving processes — reports loaded from disk carry an empty
      profile and recomputed stats, deterministic fields identical.

    A miss in both tiers plans from scratch: no planner state is shared
    across compiles.  Hits, misses and evictions are counted in {!stats}.  All operations
    are mutex-protected. *)

type t

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [create ()] is a process-local cache of LRU capacity 64 (or
    [capacity]); pass [dir] to add the on-disk tier (the directory is
    created on demand). *)

val key :
  config:Btsmgr.config ->
  name:string ->
  ms_opt:bool ->
  segment_scan:[ `Full | `Adjacent ] ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  string
(** Stable content hash of one compile's inputs, as 16 hex digits.  Any
    change to the graph (kinds, args, freqs, outputs), the parameters,
    the manager identity or the compiled-in cost model changes the key. *)

val find : t -> Ckks.Params.t -> string -> (Fhe_ir.Dfg.t * Report.t) option
(** Cache lookup under the parameters the key was made from.  A hit
    returns a private copy of the managed graph and the stored report
    with [compile_ms] replaced by the lookup time (the honest cost of the
    warm compile); all deterministic fields are bit-identical to the cold
    compile's.  In-memory hits are served as stored (this process stored
    them).  An unreadable disk file (malformed, an older schema, a
    dangling node reference) is a miss.  A readable one is served only
    when {!Analysis.Verify.run} reports no error on its graph, the
    report fields the graph determines re-derive ([latency_ms] is
    {!Fhe_ir.Latency.total} of it bit for bit, [region_of] gives each
    node a region in [[-1, region_count)], [segments] chain region 0 to
    the last region in increasing pairs), and
    {!Analysis.Certify.check} reports none on any stored certificate; otherwise
    it counts as a miss, is logged as [plan_cache.disk_rejected], and
    the caller's recompile overwrites it. *)

val store : t -> string -> Fhe_ir.Dfg.t -> Report.t -> unit
(** Insert a compile result (copies are taken).  Evicts least-recently
    used entries above capacity; writes through to the disk tier. *)

val dir : t -> string option

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  disk_hits : int;  (** Subset of [hits] served from the disk tier. *)
  disk_entries : int;
}

val stats : t -> stats
val stats_json : stats -> Obs.Json.t

val clear : t -> unit
(** Drop every in-memory entry and delete the disk tier's files. *)
