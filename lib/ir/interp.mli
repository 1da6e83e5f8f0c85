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

    {!run} drives a whole graph in one call.  {!Session} exposes the same
    execution one node at a time — create, step through {!Session.order},
    finish — so a supervisor (the resilience layer's recovery interpreter)
    can interleave checkpointing, validation, rollback and repair between
    nodes.  [run] is implemented on [Session] and is bit-identical to the
    single-loop interpreter it replaced. *)

type env = {
  inputs : (string * float array) list;
  consts : string -> float array;  (** Resolver for constant payloads. *)
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
          [Input]/[Const] nodes are omitted (they charge nothing). *)
  noise : noise_summary;
}

exception Missing_input of string

(** Stepwise execution with checkpoint/rollback, for supervised runs. *)
module Session : sig
  type t

  type snapshot
  (** A checkpoint: the values live at an execution position (everything
      downstream is recomputed on rollback) plus the latency and op
      counters at that point.  It shares the session's persistent value
      maps — and through them the ciphertexts' immutable slot arrays —
      so taking one is O(1) and copies nothing. *)

  val create :
    ?trace:Obs.Trace.t -> ?region_of:(int -> int) -> Ckks.Evaluator.t -> Dfg.t -> t
  (** Validates the graph with {!Scale_check} (raising the same structured
      [Illegal_graph] {!Ckks.Evaluator.Fhe_error} as {!run}) and prepares
      the execution order.  Nothing executes yet. *)

  val order : t -> int array
  (** Node ids in execution (topological) order; {!exec} them in sequence. *)

  val schedule : t -> Liveness.schedule
  (** The session's materialised {!Liveness.schedule} — [order] plus the
      O(1) last-use/liveness bounds that checkpointing keys on. *)

  val static_info : t -> Scale_check.info array
  (** The scale checker's per-node level/scale — the static contract a
      supervisor validates the runtime state against. *)

  val graph : t -> Dfg.t
  val evaluator : t -> Ckks.Evaluator.t
  val region_of : t -> int -> int
  val latency_ms : t -> float
  (** Simulated latency accumulated so far (including charged backoff). *)

  val exec : t -> env -> int -> unit
  (** Execute the next node of {!order}: publishes it and its region as
      the executing node ({!Obs.set_node}), installs trace attribution,
      runs the evaluator op, accumulates latency/op counts.  The session
      holds only live values: the result is kept only if it is an output
      or used later, and each operand is freed at its
      {!Liveness.schedule} last use.
      @raise Ckks.Evaluator.Fhe_error as the evaluator does (the session
      is then unchanged).
      @raise Missing_input when [env] lacks a named input. *)

  val live_cts : t -> (int * Ckks.Ciphertext.t) list
  (** The ciphertexts live at the current position — every executed
      ciphertext node that is an output or has a use still to execute
      ({!Liveness.live_at}) — ascending node id: the state a supervisor
      validates at a region boundary. *)

  val refresh : t -> int -> Ckks.Ciphertext.t
  (** Panic re-bootstrap of a live node's ciphertext in place
      ({!Ckks.Evaluator.refresh}): bootstrap-priced, level/scale
      preserved, noise estimate reset.  Returns the refreshed ct. *)

  val snapshot : t -> snapshot
  (** O(1) checkpoint for resuming at the current position (the index in
      {!order} of the next node to execute).  It holds exactly the live
      values — outputs and every value with a use at or after that
      position — which is what makes a liveness-derived checkpoint
      budget meaningful. *)

  val snapshot_at : snapshot -> int
  val snapshot_bytes : snapshot -> float
  (** Estimated ciphertext bytes held by the checkpoint
      ({!Liveness.ciphertext_bytes} per live ct, summed in node-id
      order). *)

  val rollback : t -> snapshot -> int
  (** Restore values and counters from the checkpoint; returns the
      position to resume {!exec} from. *)

  val charge_ms : t -> float -> unit
  (** Add [ms] to the simulated latency (and the trace clock, when one is
      installed) — retry backoff is charged this way. *)

  val clear_ctx : t -> unit
  (** Clear the published executing node, its region and trace
      attribution; call when abandoning or finishing a session ({!run}
      does this on all paths). *)

  val finish : t -> result
  (** Collect outputs and summaries.  The session must have executed every
      node in {!order}.  The noise summary covers every executed
      ciphertext, freed or not — it reads a per-node noise bound recorded
      by {!exec} and {!refresh}, so after a {!rollback} it still counts
      the values dropped before the checkpoint. *)
end

val run :
  ?trace:Obs.Trace.t ->
  ?region_of:(int -> int) ->
  Ckks.Evaluator.t ->
  Dfg.t ->
  env ->
  result
(** [region_of] (default [fun _ -> -1]) maps node ids of [g] to region ids
    for event attribution and [node_costs].

    @raise Ckks.Evaluator.Fhe_error when the program violates a runtime
    constraint (e.g. an unmanaged program as in Figure 1a); with [?trace]
    the trace then ends with an ["fhe_error"] instant naming the faulting
    node.
    @raise Missing_input when [env] lacks a named input. *)
