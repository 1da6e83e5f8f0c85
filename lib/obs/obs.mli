(** Lightweight observability for the compile pipeline.

    Wall-clock {e spans}, monotonic {e counters} and float {e minima},
    collected into one ledger, a {!Profile.t}, and serialised as JSON
    with no external dependencies.  The compiler driver installs a
    profile as the ambient collector for the dynamic extent of one
    compile ({!with_profile}); instrumentation sites deep in the pipeline
    (min-cut engine, planners) record through the module-level
    conveniences, which are no-ops when no profile is installed, so
    un-profiled callers pay only an option check. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialisation.  Floats use the shortest representation that
      round-trips; non-finite floats become [null]. *)

  val pp : Format.formatter -> t -> unit

  val of_string : string -> (t, string) result
  (** Strict parser for the serialisation above (standard JSON; [\uXXXX]
      escapes decode to UTF-8). *)

  val member : string -> t -> t option
  (** [member key (Obj fields)] looks up [key]; [None] on non-objects. *)
end

module Timer : sig
  type t

  val start : unit -> t
  val elapsed_ms : t -> float
end

module Profile : sig
  type span = { name : string; depth : int; start_ms : float; dur_ms : float }
  (** A completed timed section.  [start_ms] is relative to profile
      creation; [depth] is the nesting depth at entry (0 = top level). *)

  type t

  val create : unit -> t

  val span : t -> string -> (unit -> 'a) -> 'a
  (** Time [f], recording a span even when [f] raises.  Nests. *)

  val incr : ?by:int -> t -> string -> unit
  val counter : t -> string -> int
  (** Current value of a counter; 0 when never incremented. *)

  val spans : t -> span list
  (** Completed spans in chronological (start time) order. *)

  val counters : t -> (string * int) list
  (** All counters, sorted by name. *)

  val observe_min : t -> string -> float -> unit
  (** Keep the least value observed under [name]. *)

  val minimum : t -> string -> float option
  (** The least value observed under [name]; [None] when never observed. *)

  val to_json : t -> Json.t
  (** [{"spans": [{name, depth, start_ms, dur_ms}],
       "counters": {name: int}}], plus ["minima": {name: float}] when a
      minimum was observed. *)

  val pp : Format.formatter -> t -> unit
  (** Top-level phase durations and counters, one per line. *)
end

(** Runtime execution tracing — a ring-buffered flight recorder of per-op
    CKKS events on a {e simulated} timeline.

    The simulated evaluator ({!Ckks.Evaluator}) records the scheme-state
    facts of every Table 1 operation (level, scale, size, noise
    before/after); the DFG interpreter supplies attribution (node id,
    region id, loop frequency, freq-weighted Table 2 cost) through a
    mutable {!Trace.ctx} installed before each node executes.  The clock
    advances by each op's cost, so exported traces show where the modelled
    latency goes.  When the buffer wraps, the oldest events are dropped —
    the tail of a crashing run (e.g. the Figure 1a [Fhe_error]) always
    survives. *)
module Trace : sig
  type op_event = {
    seq : int;  (** Global event sequence number (0-based). *)
    op : string;  (** Evaluator operation, e.g. ["mul_cc"]. *)
    node : int;  (** DFG node id, [-1] outside an interpreter run. *)
    region : int;  (** Region id, [-1] when unattributed. *)
    freq : int;  (** Loop frequency charged for the node. *)
    level : int;  (** Result level. *)
    scale_bits : int;  (** Result scale, bits. *)
    size : int;  (** Result ciphertext size (3 before relin). *)
    noise_before : float;  (** Worst operand noise (absolute RMS). *)
    noise_after : float;  (** Result noise (absolute RMS). *)
    start_ms : float;  (** Simulated start time. *)
    dur_ms : float;  (** Freq-weighted simulated cost. *)
  }

  type instant = {
    iseq : int;
    iname : string;  (** ["rescale"], ["modswitch"], ["bootstrap"], ["fhe_error"]. *)
    inode : int;
    iregion : int;
    its_ms : float;
    detail : (string * Json.t) list;
  }

  type event = Op of op_event | Instant of instant

  type ctx = { node : int; region : int; freq : int; cost_ms : float }
  (** Attribution installed by the interpreter for the node being executed.
      [cost_ms] (freq-weighted {!Fhe_ir.Latency.node_cost}) overrides the
      evaluator's own per-op cost estimate. *)

  type t

  val create : ?capacity:int -> unit -> t
  (** Ring buffer of [capacity] events (default 65536); older events are
      overwritten once full. *)

  val set_ctx : t -> ctx option -> unit

  val record :
    t ->
    op:string ->
    ?cost_ms:float ->
    ?noise_before:float ->
    level:int ->
    scale_bits:int ->
    size:int ->
    noise:float ->
    unit ->
    unit
  (** Record one op event and advance the simulated clock.  [cost_ms] is
      used only when no {!ctx} is installed. *)

  val instant : t -> name:string -> ?node:int -> ?detail:(string * Json.t) list -> unit -> unit
  (** Record an instant marker at the current clock; [node] defaults to the
      ambient {!ctx}'s node. *)

  val events : t -> event list
  (** Surviving events, chronological. *)

  val op_events : t -> op_event list

  val recorded : t -> int
  (** Total events ever recorded, including overwritten ones. *)

  val dropped : t -> int
  (** Events lost to ring-buffer wrap-around. *)

  val clock_ms : t -> float
  (** Current simulated time — equals the accumulated cost of all recorded
      ops. *)

  val advance_clock : t -> float -> unit
  (** Move the simulated clock forward by [ms] without recording an event
      — recovery charges retry backoff this way so subsequent events land
      at the right simulated time. *)

  val headroom_bits : float -> float
  (** [-log2 err] clamped to [[0, 200]]: bits of precision left before the
      absolute error reaches magnitude 1. *)

  val chrome_events : t -> Json.t list
  (** Chrome trace-event objects (Perfetto-loadable) on the execution
      process (pid 1, ["resbm execute"]): ops as ["X"] duration events on
      per-region threads, [noise_headroom_bits] / [level] / [scale_bits]
      counter tracks, instants as ["i"] markers, plus process/thread
      metadata.  Wrap with {!chrome_trace}. *)

  val event_to_json : event -> Json.t

  val to_jsonl : t -> string list
  (** One compact JSON object per event, chronological. *)
end

(** The median the bench harness summarises multi-trial timings with. *)
module Stat : sig
  val median : float list -> float
  (** Midpoint-averaged median; [nan] on the empty list. *)
end

(** Leveled structured logging — a ring-buffered flight recorder of log
    records, the narrative companion to {!Trace}'s op events.

    Records carry automatic context (compile id, pass, executing node and
    region, emitting domain) filled in by the ambient helpers
    ({!with_log}, {!with_log_ctx}, {!set_node}, {!log_info} …), free-form
    structured fields, and a simulated-clock stamp when a trace was
    ambient at emission time — so a record emitted mid-execution lands as
    an instant on its region's thread of the execution timeline,
    correlated with the op spans around it.  The sink is
    mutex-protected, so a caller may share one across its own domains. *)
module Log : sig
  type level = Debug | Info | Warn | Error

  val level_name : level -> string
  (** ["debug"], ["info"], ["warn"], ["error"]. *)

  val level_of_name : string -> level option

  type record = {
    lseq : int;  (** Global record sequence number (0-based). *)
    level : level;
    event : string;  (** Stable machine-readable id, e.g. ["plan_cache.hit"]. *)
    msg : string;  (** Human-readable text; [""] when absent. *)
    ts_ms : float;  (** Host wall clock, relative to sink creation. *)
    sim_ms : float option;  (** Simulated trace clock at emission, if traced. *)
    compile_id : int;  (** [-1] outside any compile. *)
    pass : string;  (** [""] when no pass context. *)
    region : int;  (** [-1] when unattributed. *)
    node : int;  (** [-1] when unattributed. *)
    domain : int;  (** Emitting domain id. *)
    fields : (string * Json.t) list;  (** Free-form structured payload. *)
  }

  type t

  val create : ?capacity:int -> unit -> t
  (** Ring buffer of [capacity] records (default 8192); older records are
      overwritten once full.  Raises [Invalid_argument] when
      [capacity < 1]. *)

  val record :
    t ->
    level:level ->
    event:string ->
    ?msg:string ->
    ?sim_ms:float ->
    ?compile_id:int ->
    ?pass:string ->
    ?region:int ->
    ?node:int ->
    ?fields:(string * Json.t) list ->
    unit ->
    unit
  (** Append one record.  Thread-safe; prefer the ambient {!log_info} /
      {!log_warn} helpers, which attach context automatically. *)

  val records : t -> record list
  (** Surviving records, chronological. *)

  val recorded : t -> int
  (** Total records ever kept, including overwritten ones. *)

  val dropped : t -> int
  (** Records lost to ring-buffer wrap-around. *)

  val record_to_json : record -> Json.t

  val record_of_json : Json.t -> (record, string) result
  (** Inverse of {!record_to_json}: [record_of_json (record_to_json r)]
      is [Ok r]. *)

  val chrome_events : record list -> Json.t list
  (** Records as Perfetto ["i"] instants: a record with [sim_ms] lands on
      the execution process (pid 1) at its simulated time on its region's
      thread; one without lands on the compile process (pid 0) at its
      host timestamp.  Wrap with {!chrome_trace}. *)
end

(** Generic explanation rendering: hierarchical cost waterfalls with
    deterministic top-k folding and a structural JSON diff.  Pure
    presentation — the graph-aware producers (cost attribution, bootstrap
    rationale, plan digests) live in [Resbm.Explain] and feed this module,
    so any subsystem can reuse the same rendering. *)
module Explain : sig
  (** One attributed cost: a leaf at [group] / [bucket] / [label] in the
      hierarchy (e.g. region / op-kind / node). *)
  type row = { group : string; bucket : string; label : string; cost : float }

  type leaf = { leaf_label : string; leaf_cost : float }

  type bucket = {
    bucket_label : string;
    bucket_cost : float;
    bucket_count : int;
    leaves : leaf list;  (** Top-k leaves by cost. *)
    folded : int;  (** Leaves beyond the top-k, kept as a count... *)
    folded_cost : float;  (** ...and their summed cost, so nothing is dropped. *)
  }

  type group = {
    group_label : string;
    group_cost : float;
    group_count : int;
    buckets : bucket list;
  }

  type waterfall = {
    total : float;  (** The reference total costs are shown as a percent of. *)
    groups : group list;
    shares : (string * float) list;  (** Named headline shares (absolute). *)
  }

  val waterfall :
    ?top:int -> ?shares:(string * float) list -> total:float -> row list -> waterfall
  (** Deterministic fold of rows into a waterfall: groups, buckets and
      leaves ordered by descending cost (label as tie-break), the top
      [top] (default 5) leaves of each bucket kept individually and the
      rest folded into an explicit remainder — the waterfall always sums
      to the full attributed cost. *)

  val attributed : waterfall -> float
  (** Sum of all group costs (equals the sum over every leaf + remainder). *)

  val pp : ?title:string -> Format.formatter -> waterfall -> unit
  val to_json : waterfall -> Json.t

  (** One structural difference between two JSON documents. *)
  type change = {
    path : string list;
    before : Json.t option;  (** [None] = added in the candidate. *)
    after : Json.t option;  (** [None] = removed from the base. *)
  }

  val json_equal : Json.t -> Json.t -> bool
  (** Structural equality; [Int]/[Float] compare numerically, NaN equals
      NaN, object key order is irrelevant. *)

  val diff_json : Json.t -> Json.t -> change list
  (** Structural diff: objects align by key (order-insensitive), lists of
      equal length by index, everything else by {!json_equal}.  Empty iff
      the documents are structurally equal. *)

  val path_to_string : string list -> string
  val change_to_json : change -> Json.t
  val pp_change : Format.formatter -> change -> unit
end

(** Baseline regression gating over two bench JSON files: align rows by
    (model, manager) and compare every cell exactly, except the
    [warm_speedup] ratio, which is gated against {!warm_speedup_min}. *)
module Bench_diff : sig
  val schema_version : int
  (** The bench-file schema this build reads and writes. *)

  val warm_speedup_min : float
  (** The plan-cache contract: a candidate's cold/warm compile median
      ratio must reach this (5.0). *)

  type row = {
    model : string;
    manager : string;
    metrics : (string * float) list;  (** Deterministic metric cells. *)
    warm_speedup : float;  (** Cold/warm compile median ratio. *)
    digest : Json.t;
        (** Structural plan digest ([plan_digest] cell field).
            Renumbering-stable (see [Resbm.Explain]). *)
    counters : (string * int) list;
        (** Deterministic work counters (the [counters] object: planner,
            max-flow and pass counts). *)
  }

  type source = { version : int; git_rev : string; l_max : int; rows : row list }

  type verdict = Unchanged | Improved | Regressed | Incomparable

  val verdict_to_string : verdict -> string

  type cell = {
    cmodel : string;
    cmanager : string;
    metric : string;
    base : float;
    cand : float;
    verdict : verdict;
  }

  type outcome = {
    cells : cell list;
    missing : (string * string) list;  (** Rows in base absent from candidate. *)
    added : (string * string) list;  (** Rows in candidate absent from base. *)
    plan_drift : ((string * string) * Explain.change list) list;
        (** Per (model, manager): structural plan-digest changes.  The
            plan-level explanation that accompanies a metric change;
            non-empty drift fails the gate like any other change. *)
  }

  val load : string -> (source, string) result
  (** Parse a bench file's contents.  Refuses unversioned files, other
      [schema_version]s, files that are not resbm bench output, and rows
      without [warm_speedup], [plan_digest] or [counters], each with a
      distinct diagnostic. *)

  val diff : base:source -> cand:source -> (outcome, string) result
  (** Compare candidate against base.  The deterministic metrics
      ([latency_ms], [bootstrap_count], [executed_rescales], [nodes] and
      the higher-is-better [predicted_precision_bits]) compare exactly
      (NaN on both sides is unchanged; NaN on one side is incomparable).  Every counter compares exactly as a
      [counters.<name>] cell (absent reads as 0; fewer counts is
      [Improved]), so a change in planner
      work gates like a changed plan.  The [warm_speedup] cell is
      [Regressed] when the candidate's ratio is below
      {!warm_speedup_min}, else [Unchanged].  [Error] when the files'
      [l_max] differ. *)

  val changes : outcome -> cell list
  (** Cells whose verdict is not [Unchanged]. *)

  val exit_code : outcome -> int
  (** 0 = pass, 2 = gate failure: any changed cell or plan drift —
      improvements included, since they invalidate the committed
      baseline — or misaligned rows. *)

  val outcome_to_json : outcome -> Json.t

  val pp_outcome : ?all:bool -> Format.formatter -> outcome -> unit
  (** Changed cells (all cells with [all]) plus a one-line summary. *)
end

(** Rule-based health evaluation over a finished run's profile and log
    records.  Each rule compares one aggregate against a threshold; the
    verdict is healthy iff no rule fails.  Rules whose signals the run
    did not produce (no traced execution, no chaos campaign, no serving
    campaign) report [applicable = false] and pass vacuously, so one
    evaluator serves compile, trace, chaos and serve flights alike.
    Surfaced by the [resbm health] subcommand. *)
module Health : sig
  type severity = Pass | Warn | Fail

  val severity_name : severity -> string

  type check = {
    rule : string;
    severity : severity;
    applicable : bool;
    value : float;  (** NaN when not applicable. *)
    threshold : float;
    detail : string;
  }

  type verdict = { healthy : bool; checks : check list }

  val evaluate : ?records:Log.record list -> Profile.t -> verdict
  (** Run every rule against its fixed threshold:
      - [noise-headroom]: the [noise_headroom_bits] minimum >= 4.0 bits;
      - [recovery-rate]: counters [chaos_recovered_total] /
        [chaos_faulted_total] >= 0.9;
      - [slo-attainment]: counters [serve_completed_total] /
        [serve_admitted_total] >= 0.95 (requests finished within their
        deadline over requests admitted);
      - [error-logs]: no error-level record in [records];
      - [ring-overflow]: counters [trace_dropped_events] +
        [log_dropped_records] = 0.
      [Warn]-severity findings (error-level logs, ring overflow) never flip
      the verdict to unhealthy, but for the records a compile logs as it
      dies ([compile.no_plan], [verify.failed]): with one of them,
      [error-logs] fails. *)

  val exit_code : verdict -> int
  (** 0 = healthy, 2 = unhealthy. *)

  val check_to_json : check -> Json.t
  val to_json : verdict -> Json.t

  val pp : Format.formatter -> verdict -> unit
  (** One line per check plus the verdict. *)
end

(** Flight files: one run's log records and profile in one JSON
    document, the input [resbm health --in] judges. *)
module Flight : sig
  val to_json : Log.t -> Profile.t -> Json.t
  (** [{"resbm_flight": 2, "records": [...], "profile": {...}}], the
      profile in its {!Profile.to_json} form with the sink's {!Log.dropped}
      added to its [log_dropped_records] counter, so the file carries its
      own loss accounting.  The profile itself is not changed: exporting
      twice gives the same document. *)

  val of_json : Json.t -> (Log.record list * Profile.t, string) result
  (** Records (malformed ones skipped) and the profile (empty when the
      section is missing).  [Error] on a document that is not a flight
      file, on a flight file of another version (naming it), or on a
      malformed profile section. *)
end

val profile_chrome_events : Profile.t -> Json.t list
(** Compile-pipeline spans in the same Chrome trace-event dialect on the
    compile process (pid 0, ["resbm compile"]), so compile and execution
    (pid 1) land in one Perfetto timeline. *)

val chrome_trace : Json.t list -> Json.t
(** Wrap event objects as [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

(** {1 Ambient context}

    One domain-local record holds every ambient handle — profile, trace,
    log sink — plus the log context (compile id, pass)
    and the DFG node executing with its region.  Each [with_*] sets one
    field for the extent of its callback and restores it after, also on
    exceptions.  A domain spawned by a library caller starts with no
    handles and node [-1], and what it installs never reaches its
    parent. *)

val with_profile : Profile.t -> (unit -> 'a) -> 'a
(** Install [p] as the ambient profile for the extent of the callback
    (restoring the previous one after, also on exceptions). *)

val current : unit -> Profile.t option

val incr : ?by:int -> string -> unit
(** Increment a counter on the ambient profile; no-op when none. *)

(** Counter handles for hot instrumentation sites.  A handle is made once
    per site, at module initialisation, and names a counter; a bump adds
    to an int slot of the ambient profile, with no string hashing and no
    allocation, and costs one option check when no profile is installed.
    Handle bumps and {!incr} of the same name land in one counter: every
    {!Profile} reader ({!Profile.counter}, {!Profile.counters},
    {!Profile.to_json}) sums the two, and a handle never bumped is
    absent, as a name never passed to {!incr} is. *)
module Counter : sig
  type t

  val make : string -> t
  (** The handle for counter [name]; the same name always gives the same
      handle. *)

  val bump : t -> unit
  (** Add 1 on the ambient profile. *)

  val add : t -> int -> unit
  (** Add [n] on the ambient profile (0 records the counter as 0). *)
end

val span : string -> (unit -> 'a) -> 'a
(** Time [f] as a span on the ambient profile; just runs [f] when none. *)

val with_trace : Trace.t -> (unit -> 'a) -> 'a
(** Install [tr] as the ambient trace for the extent of the callback
    (restoring the previous one after, also on exceptions). *)

val current_trace : unit -> Trace.t option
(** The ambient trace, if any.  Instrumentation sites match on this so the
    trace-off path pays exactly one option check and allocates nothing. *)

val trace_instant :
  name:string -> ?node:int -> ?detail:(string * Json.t) list -> unit -> unit
(** Record an instant on the ambient trace; no-op when none. *)

val set_node : region:int -> int -> unit
(** Publish the DFG node about to execute and its region ([-1] = none).
    The interpreter sets both before each node, whether or not anything
    else is installed; fault rules target the node, evaluator errors
    carry it, and log records carry both. *)

val current_node : unit -> int
(** The executing node published by {!set_node}; [-1] outside execution. *)

val with_log : Log.t -> (unit -> 'a) -> 'a
(** Install [sink] as the ambient log sink for the extent of the callback
    (restoring the previous one after, also on exceptions). *)

val with_log_ctx : ?compile_id:int -> ?pass:string -> (unit -> 'a) -> 'a
(** Attach context to every record emitted inside the callback.  Fields
    merge with the enclosing context (entering a pass keeps the compile
    id); when no sink is installed the callback runs directly and the
    context is never even read. *)

val log :
  level:Log.level ->
  event:string ->
  ?msg:string ->
  ?fields:(string * Json.t) list ->
  unit ->
  unit
(** Emit one record on the ambient sink with the ambient context (compile
    id, pass, executing node and region) and — if a trace is also ambient
    — the current simulated clock; no-op when no sink is installed. *)

val log_debug : event:string -> ?fields:(string * Json.t) list -> string -> unit
val log_info : event:string -> ?fields:(string * Json.t) list -> string -> unit
val log_warn : event:string -> ?fields:(string * Json.t) list -> string -> unit
val log_error : event:string -> ?fields:(string * Json.t) list -> string -> unit
(** [log_error ~event msg] = [log ~level:Error ~event ~msg ()]. *)
