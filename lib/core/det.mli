(** Deterministic (sorted) hashtable draining for planner code.

    Raw [Hashtbl.iter]/[Hashtbl.fold] visit buckets in hash order — a
    hazard for plan reproducibility and a landmine for content-addressed
    plan hashing.  Planner modules drain tables
    through these helpers instead; the source lint
    ({!Analysis.Lint.scan_planner_sources}) flags raw iteration. *)

val sorted_bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings, ascending by key. *)

val iter_sorted : ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [iter f tbl] in ascending key order. *)
