open Fhe_ir

type outcome = {
  dfg : Dfg.t;
  repair_bootstraps : int;
  levels : int array;
  final_info : Scale_check.info array;
  order : int array;
}

exception Apply_error of string

let apply_error fmt = Format.kasprintf (fun m -> raise (Apply_error m)) fmt

(* Group cut edges by insertion tail.  Returns
   [(tail, internal_heads, boundary_out)] and the boundary-in heads. *)
let group_cut cut =
  let tails : (int, int list * bool) Hashtbl.t = Hashtbl.create 8 in
  let boundary_in = ref [] in
  List.iter
    (fun edge ->
      match edge with
      | Cut.Internal { tail; head } ->
          let heads, out = Option.value (Hashtbl.find_opt tails tail) ~default:([], false) in
          Hashtbl.replace tails tail (head :: heads, out)
      | Cut.Boundary_out { tail } ->
          let heads, _ = Option.value (Hashtbl.find_opt tails tail) ~default:([], false) in
          Hashtbl.replace tails tail (heads, true)
      | Cut.Boundary_in { head } -> boundary_in := head :: !boundary_in)
    cut.Cut.edges;
  ( List.map (fun (tail, (heads, out)) -> (tail, heads, out)) (Det.sorted_bindings tails),
    !boundary_in )

let apply regioned prm (plan : Btsmgr.plan) =
  let g = Dfg.copy regioned.Region.dfg in
  let orig_count = Dfg.node_count g in
  let region_of id = if id < orig_count then Some regioned.Region.region_of.(id) else None in
  let replace_output old_id new_id =
    Dfg.set_outputs g
      (List.map (fun o -> if o = old_id then new_id else o) (Dfg.outputs g))
  in
  (* Users of [tail] that live outside region [r] (crossing edges). *)
  let outside_users r tail =
    List.filter
      (fun u -> match region_of u with Some ru -> ru <> r | None -> true)
      (Dfg.succs g tail)
  in
  let insert_chain ~kind_of ~count ~tail ~heads ~fix_output =
    let cur = ref tail in
    for i = 0 to count - 1 do
      cur := Dfg.insert_after g ~tail:!cur ~heads (kind_of i)
    done;
    if fix_output then replace_output tail !cur;
    !cur
  in
  Array.iteri
    (fun r (act : Btsmgr.region_action) ->
      (* 1. Rescale chains on the SMO cut. *)
      let rs_tips = ref [] in
      (match act.Btsmgr.smo_cut with
      | Some cut when act.Btsmgr.rescales >= 1 ->
          let groups, boundary_in = group_cut cut in
          if boundary_in <> [] then apply_error "region %d: SMO cut has boundary-in edges" r;
          List.iter
            (fun (tail, heads, out) ->
              let heads = if out then heads @ outside_users r tail else heads in
              let is_out = out && List.mem tail (Dfg.outputs g) in
              let tip =
                insert_chain
                  ~kind_of:(fun _ -> Op.Rescale)
                  ~count:act.Btsmgr.rescales ~tail ~heads ~fix_output:is_out
              in
              rs_tips := tip :: !rs_tips)
            groups
      | _ -> ());
      (* 2. Bootstrap insertion.  All insertions share one bootstrap node
         per tail: a boundary branch and a boundary-in group landing on
         the same rescale tip must not bootstrap it twice. *)
      match act.Btsmgr.bts with
      | None -> ()
      | Some { Btsmgr.target; cut; subgraph } -> (
          let kind_of _ = Op.Bootstrap target in
          let bootstrap_after ~tail ~heads ~fix_output =
            let existing =
              List.find_opt
                (fun u ->
                  let un = Dfg.node g u in
                  un.Dfg.kind = Op.Bootstrap target && un.Dfg.args = [| tail |])
                (Dfg.succs g tail)
            in
            match existing with
            | Some b ->
                List.iter
                  (fun h ->
                    let hn = Dfg.node g h in
                    Array.iteri
                      (fun i a -> if a = tail then Dfg.set_arg g ~user:h ~arg_index:i b)
                      hn.Dfg.args)
                  heads;
                if fix_output then replace_output tail b;
                b
            | None -> insert_chain ~kind_of ~count:1 ~tail ~heads ~fix_output
          in
          (* Live-out branches of the rescale tips that leave the region
             without passing the level-0 subgraph (a source-side live-out
             rescaled on its boundary edge) still need a bootstrap: the
             bootstrap cut below only covers subgraph paths. *)
          let bootstrap_boundary_branches () =
            List.iter
              (fun tip ->
                let heads =
                  List.filter
                    (fun u ->
                      (match (Dfg.node g u).Dfg.kind with
                      | Op.Bootstrap _ -> false
                      | _ -> true)
                      && match region_of u with Some ru -> ru <> r | None -> true)
                    (Dfg.succs g tip)
                in
                let is_out = List.mem tip (Dfg.outputs g) in
                if heads <> [] || is_out then
                  ignore (bootstrap_after ~tail:tip ~heads ~fix_output:is_out))
              !rs_tips
          in
          match cut with
          | Some cut ->
              let groups, boundary_in = group_cut cut in
              List.iter
                (fun (tail, heads, out) ->
                  let heads = if out then heads @ outside_users r tail else heads in
                  let is_out = out && List.mem tail (Dfg.outputs g) in
                  ignore (bootstrap_after ~tail ~heads ~fix_output:is_out))
                groups;
              (* Boundary-in: bootstrap the external producers feeding the
                 cut heads (typically the freshly inserted rescale). *)
              if boundary_in <> [] then begin
                let in_sub = Hashtbl.create 16 in
                List.iter (fun id -> Hashtbl.add in_sub id ()) subgraph;
                let producer_heads = Hashtbl.create 8 in
                List.iter
                  (fun head ->
                    List.iter
                      (fun p ->
                        if Op.produces_ct (Dfg.node g p).Dfg.kind && not (Hashtbl.mem in_sub p)
                        then
                          Hashtbl.replace producer_heads p
                            (head
                            :: Option.value (Hashtbl.find_opt producer_heads p) ~default:[]))
                      (Dfg.preds g head))
                  boundary_in;
                Det.iter_sorted
                  (fun p heads -> ignore (bootstrap_after ~tail:p ~heads ~fix_output:false))
                  producer_heads
              end;
              bootstrap_boundary_branches ()
          | None ->
              (* Bootstrap directly after the rescale chains; with no
                 rescales either (an unrescaled source region whose
                 multiplications are its live-outs), bootstrap the
                 region's live-out edges. *)
              let tips =
                if !rs_tips <> [] then !rs_tips
                else
                  List.filter
                    (fun id ->
                      List.mem id (Dfg.outputs g)
                      || List.exists
                           (fun u ->
                             match region_of u with Some ru -> ru <> r | None -> true)
                           (Dfg.succs g id))
                    (Region.ct_members regioned r)
              in
              List.iter
                (fun tip ->
                  let heads =
                    List.filter
                      (fun u ->
                        (match (Dfg.node g u).Dfg.kind with
                        | Op.Bootstrap _ -> false
                        | _ -> true)
                        && match region_of u with Some ru -> ru <> r | None -> true)
                      (Dfg.succs g tip)
                  in
                  let is_out = List.mem tip (Dfg.outputs g) in
                  if heads <> [] || is_out then
                    ignore (bootstrap_after ~tail:tip ~heads ~fix_output:is_out))
                tips))
    plan.Btsmgr.actions;
  (* 3. Level-deficit repair: operands arriving below the planned level of
     their consuming join are bootstrapped up to exactly that level.  A
     cut's sink side names members of its own region, so one mark per
     original node says which cut of its region it sits below. *)
  let below_smo = Array.make orig_count false and below_bts = Array.make orig_count false in
  let mark below (c : Cut.t) = List.iter (fun id -> below.(id) <- true) c.Cut.sink_side in
  Array.iter
    (fun act ->
      Option.iter (mark below_smo) act.Btsmgr.smo_cut;
      match act.Btsmgr.bts with
      | Some { Btsmgr.cut = Some c; _ } -> mark below_bts c
      | _ -> ())
    plan.Btsmgr.actions;
  let intended_level id =
    match region_of id with
    | None -> None
    | Some r ->
        let act = plan.Btsmgr.actions.(r) in
        let below_smo = below_smo.(id) and below_bts = below_bts.(id) in
        let l =
          if below_bts then
            match act.Btsmgr.bts with Some b -> b.Btsmgr.target | None -> assert false
          else if below_smo then act.Btsmgr.entry_level - act.Btsmgr.rescales
          else act.Btsmgr.entry_level
        in
        Some l
  in
  (* Single forward pass: propagate Table 1 ({!Scale_check.transfer})
     incrementally so each repair is visible to everything downstream —
     otherwise one genuine deficit cascades into spurious repairs against
     stale levels. *)
  let repair_count = ref 0 in
  let repair_cache = Hashtbl.create 8 in
  let q = prm.Ckks.Params.scale_bits in
  (* Per-node point, indexed by id; repair bootstraps get fresh ids past
     the snapshot, so the array grows on demand. *)
  let unset = { Scale_check.scale_bits = q; level = 0; is_ct = false } in
  let info = ref (Array.make (Dfg.node_count g) unset) in
  let set id i =
    let n = Array.length !info in
    if id >= n then
      info := Array.append !info (Array.make (max (id + 1) (2 * n) - n) unset);
    !info.(id) <- i
  in
  let snapshot = Dfg.topo_order g in
  List.iter
    (fun id ->
      let node = Dfg.node g id in
      (* Repair deficient operands against the planned level: joins need
         matching levels, and multiplications additionally need capacity
         for their product scale. *)
      (match node.Dfg.kind with
      | Op.Add_cc | Op.Mul_cc | Op.Mul_cp -> (
          match intended_level id with
          | Some want when want >= 1 && want <= prm.Ckks.Params.l_max ->
              Array.iteri
                (fun i a ->
                  let have = !info.(a) in
                  if
                    Op.produces_ct (Dfg.node g a).Dfg.kind
                    && have.Scale_check.level < want
                    && have.Scale_check.scale_bits = q
                  then begin
                    let bts =
                      match Hashtbl.find_opt repair_cache (a, want) with
                      | Some b -> b
                      | None ->
                          let b = Dfg.insert_after g ~tail:a ~heads:[] (Op.Bootstrap want) in
                          Hashtbl.add repair_cache (a, want) b;
                          set b (Scale_check.transfer prm !info (Dfg.node g b));
                          incr repair_count;
                          let region n =
                            Obs.Json.Int (Option.value (region_of n) ~default:(-1))
                          in
                          Obs.log_debug ~event:"plan.repair"
                            ~fields:
                              [
                                ("operand", Obs.Json.Int a);
                                ("operand_op", Obs.Json.String (Op.name (Dfg.node g a).Dfg.kind));
                                ("operand_region", region a);
                                ("have_level", Obs.Json.Int have.Scale_check.level);
                                ("want_level", Obs.Json.Int want);
                                ("join", Obs.Json.Int id);
                                ("join_region", region id);
                              ]
                            "repair bootstrap for a level-deficient join operand";
                          b
                    in
                    Dfg.set_arg g ~user:id ~arg_index:i bts
                  end)
                node.Dfg.args
          | _ -> ())
      | _ -> ());
      set id (Scale_check.transfer prm !info node))
    snapshot;
  let levels = Array.init (Dfg.node_count g) (fun id -> !info.(id).Scale_check.level) in
  (* Repairs rewire joins onto new nodes, which can reorder Kahn's
     traversal: only an unrepaired graph still has the snapshot's order. *)
  let order = if !repair_count = 0 then snapshot else Dfg.topo_order g in
  (* 4. Close the remaining (downward) mismatches with modswitch chains.
     Legalisation's closing validation is the managed graph's scale/level
     analysis — hand it to the caller so Driver need not re-infer. *)
  let final_info, order =
    match Legalize.run prm g ~levels ~order with
    | Ok result -> result
    | Error (v :: _) ->
        apply_error "managed graph is not legal: %a" Scale_check.pp_violation v
    | Error [] -> assert false
  in
  { dfg = g; repair_bootstraps = !repair_count; levels; final_info; order }
