(** Simulated homomorphic evaluator for RNS-CKKS.

    Implements exactly the operation semantics of Table 1 and enforces the
    operation constraints of Section 2.2:

    - levels are non-negative and match for binary operations;
    - scales match for additions;
    - the scale stays within the modulus capacity
      [level >= ceil(scale / q) - 1];
    - rescaling requires [scale >= q * q_w] and a level to spend;
    - bootstrapping targets a level in [1, l_max] and resets the scale
      to [q].

    A violated constraint raises {!Fhe_error} carrying a structured
    {!error}: the {!cause}, the op name, the DFG node
    ({!Obs.current_node}) when the interpreter attributed one, and the
    scheme state at the raise site (level, scale, noise headroom) — so
    recovery policies and diagnostics dispatch on the cause rather than on
    message substrings.
    {!error_message} recovers the legacy human-readable string; messages
    are unchanged from the unstructured era.  This is how the test suite
    proves that unmanaged programs fail (Figure 1a) while compiled ones
    run.  The evaluator also injects deterministic noise so the Table 6
    fidelity experiment measures a real end-to-end error.

    When an ambient {!Obs.Trace} is installed ({!Obs.with_trace}), every
    Table 1 operation records an op event (result level/scale/size, noise
    before/after, Table 2 cost); rescale, modswitch and bootstrap add
    level-transition instants; and a constraint failure leaves a final
    ["fhe_error"] instant before {!Fhe_error} is raised.  Tracing never
    changes results (the noise PRNG is untouched) and costs one option
    check per operation when disabled.

    When an ambient {!Fault} injector is installed ({!Fault.with_faults}),
    every operation's result passes through the injector, which may spike
    its noise, drift its scale bookkeeping, corrupt a slot, or fail the
    operation with a retryable [Injected_transient] error.  Injection
    draws use the injector's private PRNG stream, so a run with no
    injector installed is bit-identical to one before this layer existed
    (one option check per operation). *)

(** Why a runtime constraint failed — the dispatch key for recovery. *)
type cause =
  | Scale_overflow  (** scale exceeds the modulus capacity at this level *)
  | Scale_mismatch  (** addition operands at different scales *)
  | Level_mismatch  (** binary-op operands at different levels *)
  | Level_underflow  (** rescale/modswitch with no level to spend *)
  | Scale_underflow  (** rescale below [q * q_w] *)
  | Size_mismatch  (** not relinearised (or relin of a size-2 ct) *)
  | Slot_mismatch  (** slot-count mismatch or empty ciphertext *)
  | Target_out_of_range  (** bootstrap target outside [1, l_max] *)
  | Negative_level  (** encrypt at a negative level *)
  | Illegal_graph  (** statically illegal DFG (raised by {!Fhe_ir.Interp}) *)
  | State_divergence
      (** runtime state diverged from the static plan beyond repair
          (raised by recovery, not by the evaluator itself) *)
  | Injected_transient  (** a {!Fault.Transient} injection; retryable *)

val cause_name : cause -> string
(** Stable snake_case name, e.g. ["scale_overflow"] — used in trace
    instants and report causes. *)

type error = {
  cause : cause;
  op : string;  (** operation that raised, e.g. ["mul_cc"] *)
  node : int;  (** DFG node ({!Obs.current_node}) at raise time; [-1] = none *)
  level : int;  (** operand/result level at the raise site; [-1] unknown *)
  scale_bits : int;  (** scale at the raise site; [-1] unknown *)
  headroom_bits : float;  (** noise headroom at the raise site; [nan] unknown *)
  message : string;  (** legacy human-readable message *)
}

exception Fhe_error of error

val error_message : error -> string
(** The legacy string payload — byte-identical to the messages raised
    before the structured change. *)

val transient : error -> bool
(** [true] exactly for [Injected_transient]: retrying the computation may
    succeed without any state repair. *)

val error :
  ?node:int ->
  ?level:int ->
  ?scale_bits:int ->
  ?noise:float ->
  cause ->
  op:string ->
  string ->
  error
(** Build an error; [node] defaults to {!Obs.current_node},
    [headroom_bits] is derived from [noise] when given. *)

val raise_error : error -> 'a
(** The single raise funnel: records one ["fhe_error"] trace instant,
    then raises {!Fhe_error}.  Every raise path in the evaluator and the
    interpreter goes through here, so each error leaves exactly one
    instant. *)

type t

val create : ?seed:int64 -> Params.t -> t

val params : t -> Params.t

val op_count : t -> int
(** Number of homomorphic operations executed so far. *)

val encode : t -> ?scale_bits:int -> float array -> Plaintext.t
(** Encode at [scale_bits] (default: the waterline, as EVA encodes weights
    and biases). *)

val encrypt : t -> ?level:int -> ?scale_bits:int -> float array -> Ciphertext.t
(** Fresh ciphertext (defaults from the parameters' input level/scale). *)

val decrypt : t -> Ciphertext.t -> float array

val add_cc : t -> Ciphertext.t -> Ciphertext.t -> Ciphertext.t
val add_cp : t -> Ciphertext.t -> Plaintext.t -> Ciphertext.t
val mul_cc : t -> Ciphertext.t -> Ciphertext.t -> Ciphertext.t
(** Result has [size = 3]; relinearise before using it elsewhere. *)

val mul_cp : t -> Ciphertext.t -> Plaintext.t -> Ciphertext.t
val rotate : t -> Ciphertext.t -> int -> Ciphertext.t
val relin : t -> Ciphertext.t -> Ciphertext.t
val rescale : t -> Ciphertext.t -> Ciphertext.t
val modswitch : t -> Ciphertext.t -> Ciphertext.t
val bootstrap : t -> Ciphertext.t -> target_level:int -> Ciphertext.t

val refresh : t -> Ciphertext.t -> Ciphertext.t
(** Panic re-bootstrap for recovery: a bootstrap-priced noise reset that
    keeps the level and scale unchanged (so the static plan's bookkeeping
    still holds) while resetting the error estimate to the bootstrap
    output precision.  In a real backend this is a bootstrap to the same
    level; the simulator separates it from {!bootstrap} because Table 1's
    bootstrap also rewrites scale and level, which recovery must not. *)

val capacity_ok : Params.t -> scale_bits:int -> level:int -> bool
(** The paper's capacity constraint
    [level >= ceil(scale_bits / q_bits) - 1]. *)

(** {1 Noise model}

    The RMS error the evaluator injects, in bits.  {!Fhe_ir.Noise_check}
    propagates the same constants at compile time. *)

val fresh_noise_bits : float
(** Encryption, multiplication and rescaling add [2^(fresh - scale_bits)]. *)

val rotate_noise_bits : float
(** Key switching (rotation, relinearisation) adds
    [2^(rotate - scale_bits)]. *)

val bootstrap_precision_bits : float
(** Bootstrapping (and {!refresh}) adds [2^-precision], independent of the
    scale. *)
