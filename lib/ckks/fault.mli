(** Deterministic seeded fault injection for the simulated evaluator.

    A fault {!plan} describes what can go wrong — noise spikes, scale
    drift, transient op failures, slot corruption — as a list of {!rule}s
    (per-op-kind probability, optional per-node targeting) under a global
    fault budget.  An injector {!t} instantiates a plan with its own
    SplitMix64 stream, so fault decisions never touch the evaluator's
    noise PRNG: running with no injector installed is bit-identical to a
    build without this module.

    The injector is installed ambiently ({!with_faults}), with the same
    option-check discipline as {!Obs.with_trace}: the fault-off fast path
    in the evaluator is a single option check per operation.  Every
    injection is recorded in {!injections} and as a ["fault"] trace
    instant (when a trace is installed).  Per-node targeting and
    attribution read the executing node from the ambient context
    ({!Obs.current_node}), which the interpreter publishes before each
    node. *)

type kind =
  | Noise_spike  (** multiply the noise estimate by [2^mag] and jitter slots *)
  | Scale_drift  (** silently add [int mag] bits to the bookkept scale *)
  | Transient  (** the operation fails with a retryable error *)
  | Slot_corrupt  (** perturb one slot by ~[2^mag]; noise bumped in quadrature *)

val kind_name : kind -> string
(** ["noise_spike"], ["scale_drift"], ["transient"], ["slot_corrupt"]. *)

type rule = {
  kind : kind;
  prob : float;  (** per-op injection probability in [0, 1] *)
  mag : float;  (** magnitude in bits; interpretation depends on [kind] *)
  ops : string list;  (** op names the rule applies to; [[]] = every op *)
  nodes : int list;  (** node ids the rule applies to; [[]] = every node *)
}

val rule : ?ops:string list -> ?nodes:int list -> kind -> prob:float -> mag:float -> rule

type plan = {
  seed : int64;
  rules : rule list;
  budget : int;  (** max total injections; negative = unlimited *)
}

type injection = {
  index : int;  (** 0-based injection ordinal within the run *)
  inj_kind : kind;
  inj_op : string;
  inj_node : int;  (** executing node at injection time; -1 when unattributed *)
  inj_mag : float;
}

type t

val create : plan -> t
(** Fresh injector with its own PRNG stream seeded from [plan.seed]. *)

val rng : t -> Prng.t
(** The injector's private stream — used for fault-effect draws (slot
    choice, perturbation sign) so the evaluator's noise PRNG is never
    consumed by injection. *)

val draw : t -> op:string -> (kind * float) option
(** Decide whether a fault fires for the operation [op] at the executing
    node ({!Obs.current_node}).  Rules are tried in plan order; the first
    that matches the op/node filters and wins its probability draw fires.
    A firing is logged, traced and counted before this returns.  Returns
    the kind and magnitude, or [None] (no matching rule won, or budget
    exhausted). *)

val injected : t -> int
(** Number of injections so far (recovery snapshots this at checkpoints
    to tell fault-tainted re-execution spans from clean ones). *)

val injections : t -> injection list
(** All injections so far, in firing order. *)

val with_faults : t -> (unit -> 'a) -> 'a
(** Install the injector ambiently for the callback (exception-safe). *)

val current : unit -> t option
