(** Content-addressed plan cache.

    Within one process a compile is a pure function of (program
    structure, CKKS parameters, manager configuration); {!key} hashes
    exactly those inputs (FNV-1a, 64-bit, canonical node order), so equal
    keys mean the sequential cold compile would produce a bit-identical
    plan and report.  The cache is an in-memory LRU of compiled plans
    (graph + {!Report.t}) that lives as long as the process.

    A miss plans from scratch: no planner state is shared across
    compiles.  Hits, misses and evictions are counted in {!stats}.  All
    operations are mutex-protected. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is a cache of LRU capacity 64 (or [capacity]). *)

val key :
  config:Btsmgr.config ->
  name:string ->
  ms_opt:bool ->
  segment_scan:[ `Full | `Adjacent ] ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  string
(** Content hash of one compile's inputs, as 16 hex digits.  Any change
    to the graph (kinds, args, freqs, outputs), the parameters or the
    manager identity changes the key. *)

val find : t -> string -> (Fhe_ir.Dfg.t * Report.t) option
(** Cache lookup.  A hit returns a private copy of the managed graph and
    the stored report with [compile_ms] replaced by the lookup time (the
    honest cost of the warm compile); all deterministic fields are
    bit-identical to the cold compile's. *)

val store : t -> string -> Fhe_ir.Dfg.t -> Report.t -> unit
(** Insert a compile result (copies are taken).  Evicts least-recently
    used entries above capacity. *)

type stats = { entries : int; capacity : int; hits : int; misses : int; evictions : int }

val stats : t -> stats
