(** DFG interpreter over the simulated CKKS evaluator.

    Runs a (legalised) DFG end to end: inputs are encrypted, constants are
    encoded at the scales resolved by the scale checker, and each node
    executes on {!Ckks.Evaluator}, enforcing every runtime constraint and
    accumulating simulated latency from the Table 2 cost model.

    Nodes with [freq > 1] (rolled loops) execute once as a representative
    iteration; their latency is charged [freq] times, exactly as the
    paper's cost model does for rolled loops.

    Passing [?trace] turns the run into a flight-recorded execution: the
    interpreter installs the trace as ambient ({!Obs.with_trace}) and, for
    each node, a {!Obs.Trace.ctx} carrying the node id, its region
    ([?region_of], e.g. {!Resbm.Report.t}'s attribution), the loop
    frequency and the freq-weighted {!Latency.node_cost} — so every event
    the evaluator records is fully attributed and the trace's simulated
    clock ends at [result.latency_ms].  Without [?trace] no event is
    recorded and results are bit-identical (tracing never touches the
    noise PRNG).

    A graph is executed in two halves.  {!Program.make} does the static
    half once per (params, graph, region attribution): scale validation,
    the execution schedule, each node's Table 2 price and its region.  A
    {!Session} is the dynamic half, one per execution: it reads the
    program and does no static work, so a server runs any number of
    batches, retries and rollbacks over one program.  {!run_program}
    drives a whole execution in one call, and {!run} is
    [run_program (Program.make ...)].  {!Session} exposes the same
    execution one node at a time — create, step through {!Session.order},
    finish — so a supervisor (the resilience layer's recovery interpreter)
    can interleave checkpointing, validation, rollback and repair between
    nodes. *)

type env = {
  inputs : (string * float array) list;
  consts : string -> float array;
      (** Resolver for constant payloads.  It must be a pure function of
          the name: a {!Program} encodes each constant once per resolver
          (told apart by physical equality) and reuses the plaintext in
          every later run with the same closure.  The lowering's
          resolver ([Nn.Lowering.resolver]) is memoised, so one closure
          serves a whole campaign. *)
}

type node_cost = {
  node : int;
  op : string;  (** {!Op.name} of the node kind. *)
  region : int;  (** From [?region_of]; [-1] when unattributed. *)
  cost_ms : float;  (** Freq-weighted simulated latency. *)
}

type noise_summary = {
  min_headroom_bits : float;
      (** Minimum {!Obs.Trace.headroom_bits} over every ciphertext produced
          by the run — how close the execution came to drowning the
          message in noise.  [infinity] when no ciphertext was produced. *)
  min_headroom_node : int;  (** Node achieving the minimum; [-1] if none. *)
  bootstrap_headroom : (int * float) list;
      (** For each executed bootstrap, its node id and the headroom of its
          {e operand} — the budget left at the refresh point, execution
          order. *)
  noisiest : (int * float) list;
      (** The (up to) five nodes with the least headroom, ascending. *)
}

type result = {
  outputs : Ckks.Ciphertext.t list;
  latency_ms : float;  (** Simulated execution latency. *)
  op_count : int;  (** Freq-weighted number of executed FHE operations. *)
  node_costs : node_cost list;
      (** Per-node latency attribution, execution (topological) order;
          [Input]/[Const] nodes are omitted (they charge nothing).  A
          run's final path executes every scheduled node once, rollbacks
          included, so this is the program's list, built once on first
          ask and shared by all its runs. *)
  noise : noise_summary Lazy.t;
      (** Built when first forced, from the per-node noise bounds the
          session recorded: a server that never reads it never pays for
          it.  [resbm trace --summary] prints it. *)
}

exception Missing_input of string

(** The static half of an execution: everything derived from the
    parameters, the graph and its region attribution, computed once.
    One program serves every batch, retry and trial over its graph.
    The one thing a run adds to it is each [Const] node's plaintext,
    encoded on first use and kept for later runs that resolve constants
    through the same [env.consts] closure (another closure refills the
    table); encoding is a pure function of the payload, so this changes
    no result, but a program is not to be run from two domains at
    once. *)
module Program : sig
  type t

  val make : ?trace:Obs.Trace.t -> ?region_of:(int -> int) -> Ckks.Params.t -> Dfg.t -> t
  (** Sorts the graph once ({!Dfg.topo_order}; that sort is also the
      proof of acyclicity, so {!Scale_check.run}'s well-formedness pass
      skips its own), validates it with {!Scale_check} and materialises
      its {!Liveness.schedule} over that order, and prices each node at
      its {!Latency.node_cost} once.
      [region_of] (default [fun _ -> -1]) is read once per scheduled
      node.  Increments the ambient profile's [interp.programs] counter
      ({!Obs.incr}).
      @raise Ckks.Evaluator.Fhe_error [Illegal_graph] naming the first
      violating node when the graph is not legal; with [?trace] the
      trace then ends with the same ["fhe_error"] instant a runtime
      failure leaves. *)

  val params : t -> Ckks.Params.t
  val graph : t -> Dfg.t

  val info : t -> Scale_check.info array
  (** The scale checker's per-node level/scale — the static contract a
      supervisor validates the runtime state against.  Equal to
      {!Scale_check.infer} on the program's graph, so with {!order} it
      feeds {!Noise_check.analyse}'s [?scales] and [?order]. *)

  val schedule : t -> Liveness.schedule
  (** Execution order plus the O(1) last-use/liveness bounds that
      checkpointing keys on. *)

  val order : t -> int array
  (** [(schedule p).order]: node ids in execution (topological) order. *)

  val prefix_ms : t -> int -> float
  (** [prefix_ms p i], for [0 <= i <= n] over an [n]-node order: the
      freq-weighted simulated cost of executing [order.(0 .. i-1)],
      summed left to right.  [prefix_ms p n] is, bit for bit, the
      [latency_ms] a fault-free run accumulates — a batch is priced
      without running it. *)

  val boundary : t -> int -> bool
  (** [boundary p i], for [0 <= i <= n]: position [i] starts a new region
      (or is [0] or [n]) — where a supervisor checkpoints and
      validates. *)

  val peak_bytes : t -> float
  (** {!Liveness.analyse}'s peak working set of the schedule, in
      bytes. *)
end

(** Stepwise execution with checkpoint/rollback, for supervised runs.

    A session keeps its live values in node-id-indexed registers, one
    array for ciphertexts and one for plaintexts.  Once it has taken a
    {!snapshot}, every register write is journalled with the value it
    replaced; {!rollback} undoes the journal, and the next snapshot
    empties it.  So only the newest snapshot can be restored, and a
    session that never snapshots keeps no journal. *)
module Session : sig
  type t

  type snapshot
  (** A checkpoint at an execution position (everything downstream is
      recomputed on rollback): the position, the latency and op
      counters and the live ciphertext bytes at that point.  It holds no
      value — the session's undo journal does — so taking one is O(1). *)

  val create : ?trace:Obs.Trace.t -> Program.t -> Ckks.Evaluator.t -> t
  (** A fresh execution of the program on [ev].  It does no static work:
      validation, scheduling and pricing happened once, in
      {!Program.make}.  Nothing executes yet.
      @raise Invalid_argument when [ev]'s parameters are not the
      program's. *)

  val order : t -> int array
  (** {!Program.order}: {!exec} the ids in sequence. *)

  val latency_ms : t -> float
  (** Simulated latency accumulated so far (including charged backoff). *)

  val exec : t -> env -> int -> unit
  (** Execute the next node of {!order}: publishes it and its region as
      the executing node ({!Obs.set_node}), installs trace attribution,
      runs the evaluator op, accumulates latency/op counts (the node's
      price is the program's).  The session holds only live values: the
      result is kept only if it is an output or used later, and each
      operand is freed at its
      {!Liveness.schedule} last use.  Untraced, it allocates nothing
      beyond the evaluator's result (a [Const] node: nothing once the
      program holds its plaintext).
      @raise Ckks.Evaluator.Fhe_error as the evaluator does (the session
      is then unchanged).
      @raise Missing_input when [env] lacks a named input. *)

  val live_cts : ?after:int -> t -> (int * Ckks.Ciphertext.t) list
  (** The ciphertexts live at the current position — every executed
      ciphertext node that is an output or has a use still to execute
      ({!Liveness.live_at}) — ascending node id: the state a supervisor
      validates at a region boundary.  With [~after:w], only those whose
      write stamp exceeds [w]: the values stored since {!writes} read
      [w], found in a log of the writes, so the cost is O(writes since
      [w]), not O(live values).  Stamps are not restored by {!rollback}:
      a value it brings back keeps its own stamp unless its node was
      written again (re-executed or refreshed) after the snapshot, in
      which case it carries that later, discarded write's stamp. *)

  val iter_live_cts : after:int -> t -> (int -> Ckks.Ciphertext.t -> unit) -> unit
  (** [f id ct] on each value {!live_cts}[ ~after] lists, newest write
      first rather than by id, with no list built. *)

  val writes : t -> int
  (** The session's write stamp: 0 at {!create}, then one more for every
      ciphertext {!exec} computes and every {!refresh}.  That write's
      value carries the new stamp. *)

  val refresh : t -> int -> Ckks.Ciphertext.t
  (** Panic re-bootstrap of a live node's ciphertext in place
      ({!Ckks.Evaluator.refresh}): bootstrap-priced, level/scale
      preserved, noise estimate reset.  Returns the refreshed ct. *)

  val snapshot : t -> snapshot
  (** O(1) checkpoint for resuming at the current position (the index in
      {!order} of the next node to execute).  It stands for exactly the
      live values — outputs and every value with a use at or after that
      position — which is what makes a liveness-derived checkpoint
      budget meaningful.  It becomes the session's newest snapshot, the
      only one {!rollback} accepts. *)

  val snapshot_at : snapshot -> int
  val snapshot_bytes : snapshot -> float
  (** Estimated ciphertext bytes held by the checkpoint:
      {!Liveness.ciphertext_bytes} summed over the live ciphertexts
      (integers, so the sum is exact in any order).  Readable on any
      snapshot, the newest or not. *)

  val rollback : t -> snapshot -> int
  (** Restore values and counters to the session's newest snapshot by
      undoing the journal; returns the position to resume {!exec} from.
      It may be repeated: each restores the same state.
      @raise Invalid_argument for any other snapshot (an older one, or
      another session's); the session is then unchanged. *)

  val charge_ms : t -> float -> unit
  (** Add [ms] to the simulated latency (and the trace clock, when one is
      installed) — retry backoff is charged this way. *)

  val clear_ctx : t -> unit
  (** Clear the published executing node, its region and trace
      attribution; call when abandoning or finishing a session ({!run}
      does this on all paths). *)

  val finish : t -> result
  (** Collect outputs and summaries.  The session must have executed every
      node in {!order}, and is done: its result's [noise] is built, on
      first force, from the session's state, so the session takes no
      further {!exec} or {!refresh}.  The noise summary covers every
      executed ciphertext, freed or not — it reads a per-node noise bound
      recorded by {!exec} and {!refresh}, so after a {!rollback} it still
      counts the values dropped before the checkpoint. *)
end

val run_program :
  ?trace:Obs.Trace.t -> Program.t -> Ckks.Evaluator.t -> env -> result
(** Execute a program from start to finish on [ev].
    @raise Ckks.Evaluator.Fhe_error when the program violates a runtime
    constraint; with [?trace] the trace then ends with an ["fhe_error"]
    instant naming the faulting node.
    @raise Missing_input when [env] lacks a named input. *)

val run :
  ?trace:Obs.Trace.t ->
  ?region_of:(int -> int) ->
  Ckks.Evaluator.t ->
  Dfg.t ->
  env ->
  result
(** [run_program ?trace (Program.make ?trace ?region_of (params ev) g) ev
    env]: a one-off execution.  [region_of] maps node ids of [g] to
    region ids for event attribution and [node_costs].

    @raise Ckks.Evaluator.Fhe_error as {!Program.make} (an unmanaged
    program as in Figure 1a is statically illegal) and {!run_program}.
    @raise Missing_input when [env] lacks a named input. *)
