(** Content-addressed plan cache.

    A compile is a pure function of (program structure, CKKS parameters,
    manager configuration, cost model); {!key} hashes exactly those
    inputs (FNV-1a, 64-bit, canonical node order), so equal keys mean the
    sequential cold compile would produce a bit-identical plan and
    report.  Three tiers:

    - an in-memory LRU of compiled plans (graph + {!Report.t});
    - an optional on-disk tier (one JSON file per key under [dir]),
      surviving processes — reports loaded from disk carry an empty
      profile and recomputed stats, deterministic fields identical;
    - an incremental tier: a {!Region_eval.Memo} keyed by the parameters
      and the exact {!Region.shape}, so re-planning an edited or
      renumbered model re-solves only region shapes it has not seen.

    Hits, misses and evictions are counted in {!stats}.  All operations
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

val find : t -> string -> (Fhe_ir.Dfg.t * Report.t) option
(** Cache lookup.  A hit returns a private copy of the managed graph and
    the stored report with [compile_ms] replaced by the lookup time (the
    honest cost of the warm compile); all deterministic fields are
    bit-identical to the cold compile's. *)

val store : t -> string -> Fhe_ir.Dfg.t -> Report.t -> unit
(** Insert a compile result (copies are taken).  Evicts least-recently
    used entries above capacity; writes through to the disk tier. *)

val memo : t -> Region_eval.Memo.t
(** The incremental region-solution memo, to thread into
    {!Driver.compile} / {!Btsmgr.plan}. *)

val dir : t -> string option

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  disk_hits : int;  (** Subset of [hits] served from the disk tier. *)
  disk_entries : int;
  memo_entries : int;
  memo_hits : int;
  memo_misses : int;
}

val stats : t -> stats
val stats_json : stats -> Obs.Json.t

val clear : t -> unit
(** Drop every in-memory entry and delete the disk tier's files. *)
