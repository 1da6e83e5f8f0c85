(* Deterministic hashtable draining for planner code.

   [Hashtbl.iter]/[Hashtbl.fold] enumerate buckets in hash order: stable
   for a fixed population history, but a landmine once that history
   changes and for any content hash that folds over the result.  Planner code must drain hashtables through
   these sorted helpers; `Analysis.Lint.scan_planner_sources` flags raw
   iteration as a lint violation. *)

(* det-ok: this module is the one sanctioned home of raw hashtable folds. *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let iter_sorted f tbl = List.iter (fun (k, v) -> f k v) (sorted_bindings tbl)
