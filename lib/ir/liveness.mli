(** Ciphertext liveness and memory-pressure analysis.

    FHE ciphertexts are large — [2 * (level + 1) * N * 8] bytes in RNS
    form — and the paper's evaluation machine carries 512 GB of RAM for a
    reason.  This analysis walks the schedule (topological order), tracks
    which ciphertexts are live, and reports the peak working set, sizing
    each ciphertext at the level assigned by the scale checker.  It also
    exposes the per-boundary live counts that DaCapo's liveness-based
    bootstrapping keys on. *)

type report = {
  total_ciphertexts : int;  (** Ciphertext values allocated over the run. *)
  peak_live : int;  (** Largest number of simultaneously live ciphertexts. *)
  peak_bytes : float;  (** Working-set size at the peak (bytes). *)
  final_live : int;  (** Live at the end (the program outputs). *)
}

(** A materialised execution schedule with liveness bounds — the shared
    substrate for every position-based liveness query ({!analyse}, the
    interpreter's checkpointing, recovery's boundary validation).  All
    arrays are indexed by node id. *)
type schedule = {
  order : int array;  (** Node ids in execution (topological) order. *)
  order_index : int array;  (** Node id -> position in [order]; [-1] if dead. *)
  last_use : int array;
      (** Position of the value's last use; [max_int] for program outputs
          (live forever), [-1] for values never used. *)
  is_output : bool array;
}

val schedule : ?order:int array -> Dfg.t -> schedule
(** [order] is {!Dfg.topo_order} as an array when the caller has sorted
    the graph already (default: sorted here); the schedule keeps it. *)

val analyse : ?info:Scale_check.info array -> ?sched:schedule -> Ckks.Params.t -> Dfg.t -> report
(** Peak working set over the schedule.  Pass [?info] and [?sched] to
    reuse an existing {!Scale_check} result and {!schedule} (as the
    interpreter session holds them) instead of recomputing both. *)

val live_at : schedule -> at:int -> int -> bool
(** [live_at sched ~at id]: is [id]'s value still needed at position [at]
    of the schedule — an output, or used at or after [at]?  O(1). *)

val ciphertext_bytes : Ckks.Params.t -> level:int -> float
(** Size of one RNS ciphertext at [level]. *)

val pp : Format.formatter -> report -> unit
