(** Operation statistics of a DFG — the counters behind Tables 4 and 5. *)

type t = {
  nodes : int;  (** Live nodes. *)
  static_by_op : (Ckks.Cost_model.op * int) list;
  executed_by_op : (Ckks.Cost_model.op * int) list;  (** Freq-weighted. *)
  executed_rescales : int;
  executed_modswitches : int;
  bootstrap_count : int;  (** Static number of bootstrap nodes. *)
  bootstrap_levels : (int * int) list;  (** (target level, count), sorted desc. *)
  max_depth : int;
}

val collect : ?order:int array -> Dfg.t -> t
(** [order] is {!Dfg.topo_order} as an array when the caller has sorted
    the graph already (default: sorted here). *)

val executed : t -> Ckks.Cost_model.op -> int

val pp : Format.formatter -> t -> unit
