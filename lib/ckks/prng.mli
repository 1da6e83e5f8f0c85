(** Deterministic pseudo-random numbers (SplitMix64).

    Everything stochastic in the reproduction — synthetic weights, the
    synthetic dataset, noise injection in the simulated evaluator — draws
    from this generator so every run is bit-reproducible. *)

type t

val create : int64 -> t

val split : t -> t
(** An independent stream derived from the current state. *)

val int64 : t -> int64

val int : t -> bound:int -> int
(** Uniform in [0, bound).  [bound] must be positive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float

val add_uniform : t -> bound:float -> src:float array -> dst:float array -> unit
(** [dst.(i) <- src.(i) +. uniform t ~lo:(-.bound) ~hi:bound] for every
    [i], in index order: one draw per element, allocating nothing.  [src]
    may be [dst].  @raise Invalid_argument when the lengths differ. *)

val gaussian : t -> float
(** Standard normal (Box–Muller). *)
