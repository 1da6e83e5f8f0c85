(** Simulated RNS-CKKS ciphertexts.

    A ciphertext carries the decoded slot values, the scale (in bits), the
    level, the number of polynomial components ([size] — 2 normally, 3
    right after a ciphertext-ciphertext multiplication until
    relinearisation), and a running absolute-error bound standing in for
    cryptographic noise.  The evaluator is the only producer of
    ciphertexts with interesting states.

    A ciphertext is immutable, its slots included.  Outside this library
    {!slots} is abstract: {!get}, {!length}, {!slice} and {!to_array}
    read it, and the compiler rejects any write into it.  Inside, the
    evaluator's kernels fill each result's array once, before building
    the ciphertext around it ([modswitch], which leaves the slots as
    they are, shares its operand's); the injected [Slot_corrupt] fault
    builds a new array too.  A value checked once therefore stays
    checked, which is what lets recovery validate each ciphertext once,
    and only {!corrupted} can build a value whose checksum needs
    checking at all. *)

type slots = Slots.t
(** A read-only slot vector. *)

type t = private {
  slots : slots;
  scale_bits : int;
  level : int;
  size : int;
  err : float;  (** Absolute per-slot error bound (noise estimate). *)
  chk : int64 option;
      (** [None] when [slots] are the ones the value was built with —
          every kernel result.  [Some c] only on a value {!corrupted}
          built: [c] is the {!checksum} of the slots before the fault, so
          boundary validation ({!integrity_ok}) can detect silent
          corruption that sits below the noise floor. *)
}

val make :
  slots:float array -> scale_bits:int -> level:int -> size:int -> err:float -> t
(** Builds a ciphertext around a copy of [slots]: the caller keeps its
    array and cannot reach the ciphertext's. *)

val of_slots : slots:slots -> scale_bits:int -> level:int -> size:int -> err:float -> t
(** {!make} without the copy.  Outside this library a {!slots} value can
    only come from another ciphertext, so the vector is shared, read-only;
    the evaluator passes arrays it has just filled. *)

val corrupted : t -> slots:slots -> err:float -> t
(** [corrupted ct ~slots ~err] is [ct] with new slots and noise bound,
    carrying the checksum of [ct]'s pristine slots: [ct]'s own when [ct]
    is intact, the one [ct] already carries when it was corrupted
    before.  The injected [Slot_corrupt] fault's result, whose
    {!integrity_ok} is false whenever the slots' checksum differs. *)

val get : t -> int -> float
(** [get ct i] is slot [i].  @raise Invalid_argument when out of range. *)

val length : t -> int
(** The number of slots. *)

val to_array : t -> float array
(** A fresh copy of the slots. *)

val slice : t -> off:int -> len:int -> float array
(** [slice ct ~off ~len] copies the slot block [[off, off+len)] — how a
    slot-batched serving layer extracts one packed request's result from a
    shared ciphertext.  @raise Invalid_argument when the block falls
    outside the slot vector. *)

val checksum : float array -> int64
(** A position-dependent hash of the slot bit patterns: the sum over
    slots [i] of splitmix64's finaliser applied to slot [i]'s bits plus
    [(i + 1) * 0x9E3779B97F4A7C15], modulo 2{^64}.  Exact, so any
    representable change to any slot — one slot, an even number of
    identical bit flips, or two slots swapped — changes it but for a
    2{^-64} chance.  Allocates nothing per slot. *)

val integrity_ok : t -> bool
(** True, in O(1), on a value whose [chk] is [None]: slots are immutable,
    so a value's slots are the ones it was built with unless {!corrupted}
    built it.  On such a value, recompute the checksum of the current
    slots and compare with [chk]; false means the injected [Slot_corrupt]
    fault changed them. *)

val max_abs : t -> float
(** The largest [|slot|], bit for bit the [Float.max] fold from +0.0: a
    NaN slot makes it the last NaN slot's absolute value. *)

val pp : Format.formatter -> t -> unit
