(** Static noise estimation.

    Propagates the same RMS error model the simulated evaluator injects at
    run time ({!Ckks.Evaluator}) through a DFG at compile time, using
    magnitude bounds instead of concrete slot values.  The result predicts
    the output precision of a managed program before executing it — the
    compile-time counterpart of the paper's RQ3 accuracy validation, and a
    guard rail for choosing scheme parameters: a plan whose predicted
    precision collapses (e.g. a scale too small for the multiplicative
    depth) can be rejected without running an inference.

    Magnitudes are tracked as per-node upper bounds: inputs and constants
    are assumed bounded by a caller-provided magnitude (default 1.0, the
    domain of the polynomial activation). *)

type info = {
  magnitude : float;  (** Upper bound on the slot values. *)
  noise : float;  (** RMS error estimate (absolute). *)
}

type report = {
  per_node : info array;
  output_noise : float;  (** Worst output error estimate. *)
  output_precision_bits : float;  (** [-log2 output_noise]. *)
}

val analyse :
  ?input_magnitude:float ->
  ?magnitude_cap:float ->
  ?const_magnitude:(string -> float) ->
  ?scales:Scale_check.info array ->
  ?order:int array ->
  Ckks.Params.t ->
  Dfg.t ->
  report
(** [magnitude_cap] (default 1.0) bounds the tracked magnitudes: FHE
    machine-learning programs keep activations inside the domain of the
    polynomial approximation ([-1, 1]), and without the cap a worst-case
    sum over a deep network diverges and predicts nothing.  Pass
    [infinity] for a sound worst-case analysis of shallow programs.
    [const_magnitude] bounds named plaintexts (weights, masks); the model
    lowering knows its amplitudes exactly, so passing its resolver's
    maxima makes the prediction sharp.  [scales] is
    {!Scale_check.infer}'s result on the same graph, and [order] its
    {!Dfg.topo_order} as an array, when the caller already has them — a
    prepared [Interp.Program]'s [info] and [order] (default: inferred
    and sorted here). *)

val predicts : report -> measured:float -> bool
(** Sanity predicate used by tests: the measured end-to-end error is
    within two orders of magnitude of the prediction (the model is an
    estimate, not a bound). *)

(** {1 Trace cross-validation}

    The runtime flight recorder ({!Obs.Trace}) records the noise the
    simulated evaluator actually accumulated; [check_trace] compares it
    against this module's static per-node estimate.  [resbm trace
    --verify-each] runs it after a traced execution, completing the
    verify-each story across the compile/run boundary. *)

type trace_mismatch = {
  node : int;
  op : string;
  traced_bits : float;  (** {!Obs.Trace.headroom_bits} of the recorded noise. *)
  predicted_bits : float;  (** Headroom of the static estimate. *)
}

val pp_trace_mismatch : Format.formatter -> trace_mismatch -> unit

val check_trace :
  ?tolerance_bits:float ->
  report ->
  Obs.Trace.op_event list ->
  trace_mismatch list
(** Events whose recorded noise exceeds the static per-node estimate by
    more than [tolerance_bits] (default 10.0 — two orders of magnitude,
    the same slack as {!predicts}).  Events without node attribution are
    skipped.  The [report] must come from {!analyse} on the {e same} graph
    the trace was recorded from. *)

val trace_hotspots :
  ?top:int -> report -> Obs.Trace.op_event list -> (int * float) list
(** [(node, ratio)] pairs ranking where the recorded run ran hottest
    against the static estimate: for each attributed node, the worst
    [noise_after / predicted] ratio over its events, the [top] (default
    16) largest first (node id breaks ties).  Unlike {!check_trace} this
    applies no tolerance, so a clean run still yields a ranking — used by
    chaos campaigns ([--from-trace]) to aim fault injection at the nodes
    with the least validated headroom. *)
