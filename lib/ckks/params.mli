(** RNS-CKKS scheme parameters.

    All scales are carried as base-2 logarithms ("bits"): the paper's
    [q = 2^56] is [scale_bits = 56].  Scale algebra (Table 1) is then exact
    integer arithmetic: multiplication adds scale bits, rescaling subtracts
    [scale_bits]. *)

type t = {
  log2_degree : int;  (** [log2 N]; slot count is [N/2]. *)
  scale_bits : int;  (** [log2 q], the rescaling factor. *)
  waterline_bits : int;  (** [log2 q_w], EVA's waterline (minimum scale). *)
  q0_bits : int;  (** [log2 q0], the output-precision prime. *)
  l_max : int;  (** Highest level a bootstrap may target. *)
  input_level : int;  (** Level of freshly encrypted inputs. *)
  input_scale_bits : int;  (** Scale of freshly encrypted inputs. *)
  bootstrap_depth : int;  (** Multiplicative depth consumed internally by
                              bootstrapping (15 in ACElib); informational. *)
}

val default : t
(** The paper's evaluation setting: [N = 2^16], [q = 2^56], [q_w = q],
    [q0 = 2^60], [l_max = 16], inputs fresh at level 16. *)

val fig1 : t
(** The motivating example of Figure 1: [q = q_w = q0 = 2^40], [l_max = 3],
    input at level 1 with scale [2^40]. *)

val slot_count : t -> int

val with_l_max : t -> int -> t
(** [with_l_max p l] is [p] with the bootstrap ceiling replaced — used for
    the Figure 7 sweep. *)

val at_l_max : int -> t
(** [at_l_max l] is {!default} with the bootstrap ceiling and the input
    level both at [l]: fresh inputs start at the top of the chain. *)

val validate : t -> (unit, string) result
(** Sanity-check internal consistency (positive scales, waterline below
    capacity, ...). *)

val pp : Format.formatter -> t -> unit
