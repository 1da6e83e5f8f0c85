open Test_util
open Fhe_ir

let prm = Ckks.Params.default

let plain g ~dim =
  Nn.Plain_eval.run g
    ~input:(fun _ -> input_env ~dim 31L)
    ~consts:(Passes.Const_fold.resolving (const_env ~dim))

let same_outputs a b =
  List.for_all2 (fun x y -> Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-9) x y) a b

(* --- DCE ------------------------------------------------------------------ *)

let dce_removes_dead_chain () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let live = Dfg.rotate g x 1 in
  let dead1 = Dfg.rotate g x 2 in
  let _dead2 = Dfg.rotate g dead1 3 in
  Dfg.set_outputs g [ live ];
  let removed = Passes.Dce.run g in
  checki "two removed" 2 removed;
  checki "two live" 2 (List.length (Dfg.live_nodes g));
  checkb "valid" true (Dfg.validate g = Ok ())

let dce_keeps_outputs () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  Dfg.set_outputs g [ x ];
  checki "nothing removed" 0 (Passes.Dce.run g)

(* --- CSE ------------------------------------------------------------------ *)

let cse_merges_identical () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let a = Dfg.rotate g x 1 in
  let b = Dfg.rotate g x 1 in
  let s = Dfg.add_cc g a b in
  Dfg.set_outputs g [ s ];
  let before = plain g ~dim:4 in
  let merged = Passes.Cse.run g in
  checkb "merged at least one" true (merged >= 1);
  checkb "valid" true (Dfg.validate g = Ok ());
  checkb "semantics preserved" true (same_outputs before (plain g ~dim:4));
  (* the add now has the same node twice *)
  let add = Dfg.node g s in
  checkb "args identical" true (add.Dfg.args.(0) = add.Dfg.args.(1))

let cse_commutative_add () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let y = Dfg.input g "y" in
  let a = Dfg.add_cc g x y in
  let b = Dfg.add_cc g y x in
  let out = Dfg.add_cc g a b in
  Dfg.set_outputs g [ out ];
  checkb "x+y merged with y+x" true (Passes.Cse.run g >= 1)

let cse_respects_freq () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let a = Dfg.rotate g ~freq:2 x 1 in
  let b = Dfg.rotate g ~freq:3 x 1 in
  let s = Dfg.add_cc g a b in
  Dfg.set_outputs g [ s ];
  checki "different freq kept apart" 0 (Passes.Cse.run g)

let cse_merges_bootstraps_fig5 () =
  (* Figure 5a: after naive management, x carries two bootstraps to the
     same level; CSE merges them *)
  let g = Dfg.create () in
  let x = Dfg.input g ~level:0 "x" in
  let b1 = Dfg.bootstrap g ~target_level:3 x in
  let b2 = Dfg.bootstrap g ~target_level:3 x in
  let m = Dfg.mul_cc g b1 b2 in
  Dfg.set_outputs g [ m ];
  checkb "bootstraps merged" true (Passes.Cse.run g >= 1);
  let live_bts =
    List.filter
      (fun n -> match n.Dfg.kind with Op.Bootstrap _ -> true | _ -> false)
      (Dfg.live_nodes g)
  in
  checki "one bootstrap left" 1 (List.length live_bts)

let cse_transitive_chains =
  qcheck ~count:30 "CSE is idempotent and semantics-preserving"
    (random_dfg_gen ~max_nodes:40 ~max_depth:5)
    (fun params ->
      let g = build_random_dfg params in
      let before = plain g ~dim:4 in
      ignore (Passes.Cse.run g);
      ignore (Passes.Dce.run g);
      let second = Passes.Cse.run g in
      Dfg.validate g = Ok () && second = 0 && same_outputs before (plain g ~dim:4))

(* --- Const folding ---------------------------------------------------------- *)

let const_fold_collapses_chain () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m1 = Dfg.mul_cp g x (Dfg.const g "a") in
  let m2 = Dfg.mul_cp g m1 (Dfg.const g "b") in
  Dfg.set_outputs g [ m2 ];
  let before = plain g ~dim:4 in
  checki "one fold" 1 (Passes.Const_fold.run g);
  ignore (Passes.Dce.run g);
  checki "depth reduced" 1 (Depth.max_depth g);
  checkb "valid" true (Dfg.validate g = Ok ());
  checkb "same function via resolving" true (same_outputs before (plain g ~dim:4))

let const_fold_resolver_parses () =
  let base name = [| (if name = "a" then 3.0 else 5.0) |] in
  let r = Passes.Const_fold.resolving base in
  check_float "product" 15.0 (r "(a*b)").(0);
  check_float "nested" 45.0 (r "((a*b)*a)").(0);
  check_float "plain name" 3.0 (r "a").(0)

let const_fold_keeps_shared_intermediates () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m1 = Dfg.mul_cp g x (Dfg.const g "a") in
  let m2 = Dfg.mul_cp g m1 (Dfg.const g "b") in
  let s = Dfg.add_cc g m1 m1 in
  Dfg.set_outputs g [ m2; s ];
  (* m1 has another consumer: folding must not fire *)
  checki "no fold" 0 (Passes.Const_fold.run g)

let fig5_pipeline_reduces_depth () =
  (* const folding + CSE turns the Figure 5a shape into 5b: the depth of z
     drops, so management needs fewer levels *)
  let g = fig5_program () in
  let d0 = Depth.max_depth g in
  ignore (Passes.Const_fold.run g);
  ignore (Passes.Cse.run g);
  ignore (Passes.Dce.run g);
  checkb "valid" true (Dfg.validate g = Ok ());
  checkb "depth not increased" true (Depth.max_depth g <= d0)

(* --- Modswitch hoisting -------------------------------------------------------- *)

let ms_opt_hoists_above_rotate () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g x 1 in
  let m = Dfg.modswitch g r in
  Dfg.set_outputs g [ m ];
  let lat_before = Latency.total prm g in
  checkb "hoisted" true (Passes.Ms_opt.run prm g >= 1);
  checkb "valid" true (Result.is_ok (Scale_check.run prm g));
  checkb "cheaper" true (Latency.total prm g < lat_before)

let ms_opt_hoists_through_mul_pair () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc g x x in
  let r = Dfg.rescale g m in
  let ms = Dfg.modswitch g r in
  Dfg.set_outputs g [ ms ];
  (* rescale is an SMO: hoisting stops there *)
  checki "no hoist through rescale" 0 (Passes.Ms_opt.run prm g)

let ms_opt_respects_sharing () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g x 1 in
  let ms = Dfg.modswitch g r in
  let other = Dfg.add_cc g r x in
  Dfg.set_outputs g [ ms; other ];
  (* r has two users: the modswitch cannot move above it *)
  checki "no hoist" 0 (Passes.Ms_opt.run prm g)

let ms_opt_preserves_semantics =
  qcheck ~count:20 "hoisting preserves semantics and legality"
    (random_dfg_gen ~max_nodes:30 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | managed, _ ->
          let before = plain managed ~dim:4 in
          ignore (Passes.Ms_opt.run prm managed);
          Result.is_ok (Scale_check.run prm managed)
          && same_outputs before (plain managed ~dim:4)
      | exception Resbm.Btsmgr.No_plan _ -> true)

let ms_opt_never_hurts =
  qcheck ~count:20 "hoisting never increases latency"
    (random_dfg_gen ~max_nodes:30 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | managed, _ ->
          let before = Latency.total prm managed in
          ignore (Passes.Ms_opt.run prm managed);
          Latency.total prm managed <= before +. 1e-6
      | exception Resbm.Btsmgr.No_plan _ -> true)

(* The pre-worklist pass, kept as a test oracle: re-infer the whole graph,
   hoist the lowest-id eligible modswitch, repeat until none is left.
   O(hoists x nodes); the worklist pass must reproduce it exactly. *)
let reference_ms_opt prm g =
  let hoists = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let info = Scale_check.infer prm g in
    let try_node node =
      if (not node.Dfg.dead) && node.Dfg.kind = Op.Modswitch && not !changed then begin
        let m = node.Dfg.id in
        let producer = node.Dfg.args.(0) in
        let p = Dfg.node g producer in
        if p.Dfg.users = [ m ] && not (List.mem producer (Dfg.outputs g)) then begin
          let level = info.(producer).Scale_check.level in
          let ok_levels target =
            level >= 1
            && Array.for_all
                 (fun a ->
                   (not (Op.produces_ct (Dfg.node g a).Dfg.kind))
                   || info.(a).Scale_check.level >= 1)
                 (Dfg.node g target).Dfg.args
            && Ckks.Evaluator.capacity_ok prm
                 ~scale_bits:info.(producer).Scale_check.scale_bits ~level:(level - 1)
          in
          let hoist target =
            Array.iteri
              (fun i a ->
                if Op.produces_ct (Dfg.node g a).Dfg.kind then
                  ignore (Dfg.wrap_operand g ~user:target ~arg_index:i Op.Modswitch))
              (Dfg.node g target).Dfg.args;
            Dfg.replace_uses g ~old_id:m ~new_id:producer;
            Dfg.kill g m;
            incr hoists;
            changed := true
          in
          match p.Dfg.kind with
          | Op.Rotate _ | Op.Add_cc | Op.Add_cp | Op.Mul_cp ->
              if ok_levels producer then hoist producer
          | Op.Relin ->
              let mul = p.Dfg.args.(0) in
              let mul_node = Dfg.node g mul in
              if mul_node.Dfg.kind = Op.Mul_cc && mul_node.Dfg.users = [ producer ]
                 && (not (List.mem mul (Dfg.outputs g)))
                 && ok_levels mul
              then hoist mul
          | _ -> ()
        end
      end
    in
    List.iter try_node (Dfg.live_nodes g)
  done;
  !hoists

let ms_opt_managers = List.filter (fun m -> m.Resbm.Variants.ms_opt) Resbm.Variants.all

(* The post-apply graph [mgr] hands to Ms_opt. *)
let managed_for mgr g =
  fst (Resbm.Driver.compile ~config:mgr.Resbm.Variants.config prm g)

(* Oracle and worklist pass on copies of one graph: same hoist count, same
   structural export. *)
let agrees_with_reference managed =
  let a = Dfg.copy managed and b = Dfg.copy managed in
  let expected = reference_ms_opt prm a in
  let got = Passes.Ms_opt.run prm b in
  (expected, got, Dfg.export a = Dfg.export b)

let ms_opt_matches_reference_on_models () =
  checki "three ms_opt managers" 3 (List.length ms_opt_managers);
  List.iter
    (fun model ->
      let g = (Nn.Lowering.lower model).Nn.Lowering.dfg in
      List.iter
        (fun mgr ->
          let what = model.Nn.Model.name ^ "/" ^ mgr.Resbm.Variants.name in
          let expected, got, same = agrees_with_reference (managed_for mgr g) in
          checkb (what ^ " hoists") true (expected > 0);
          checki (what ^ " hoist count") expected got;
          checkb (what ^ " export") true same)
        ms_opt_managers)
    [ Nn.Model.resnet20; Nn.Model.alexnet; Nn.Model.tiny ]

let ms_opt_matches_reference_random =
  qcheck ~count:30 "worklist hoisting equals the re-infer fixpoint"
    (random_dfg_gen ~max_nodes:40 ~max_depth:12)
    (fun ((seed, _, _) as params) ->
      let mgr = List.nth ms_opt_managers (seed mod List.length ms_opt_managers) in
      match managed_for mgr (build_random_dfg params) with
      | managed ->
          let expected, got, same = agrees_with_reference managed in
          expected = got && same
      | exception Resbm.Btsmgr.No_plan _ -> true)

let ms_opt_chain_requeues () =
  (* the outer modswitch reads a modswitch, so it can move only once the
     inner one has been hoisted above the rotation; the inner one is
     inserted afterwards, so the outer one has the lower id and is popped,
     and dropped, first: it must be queued again by the inner hoist *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g x 1 in
  let outer = Dfg.modswitch g r in
  ignore (Dfg.insert_after g ~tail:r ~heads:[ outer ] Op.Modswitch);
  Dfg.set_outputs g [ outer ];
  checki "two hoists" 2 (Passes.Ms_opt.run prm g);
  checkb "valid" true (Result.is_ok (Scale_check.run prm g));
  checki "rotation is the output" r (List.hd (Dfg.outputs g));
  let ms1 = (Dfg.node g r).Dfg.args.(0) in
  let ms2 = (Dfg.node g ms1).Dfg.args.(0) in
  checkb "two modswitches above the rotation" true
    ((Dfg.node g ms1).Dfg.kind = Op.Modswitch && (Dfg.node g ms2).Dfg.kind = Op.Modswitch);
  checki "chain starts at the input" x (Dfg.node g ms2).Dfg.args.(0)

let ms_opt_square_wraps_both_operands () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let y = Dfg.mul_cc g x x in
  let m = Dfg.modswitch g y in
  Dfg.set_outputs g [ m ];
  checki "one hoist" 1 (Passes.Ms_opt.run prm g);
  checkb "valid" true (Result.is_ok (Scale_check.run prm g));
  let mul = (Dfg.node g y).Dfg.args.(0) in
  let args = (Dfg.node g mul).Dfg.args in
  checkb "two distinct modswitches" true
    (args.(0) <> args.(1)
    && Array.for_all (fun a -> (Dfg.node g a).Dfg.kind = Op.Modswitch) args)

let ms_opt_leaves_no_hoistable_hint () =
  let g = (Nn.Lowering.lower Nn.Model.resnet20).Nn.Lowering.dfg in
  List.iter
    (fun mgr ->
      let managed = managed_for mgr g in
      ignore (Passes.Ms_opt.run prm managed);
      let hoistable =
        List.filter
          (fun d -> d.Analysis.Diag.hint = Some "compile with ms_opt to hoist it")
          (Analysis.Lint.run ~rules:[ Analysis.Lint.Redundant_modswitch ] prm managed)
      in
      checki (mgr.Resbm.Variants.name ^ " hoistable hints") 0 (List.length hoistable))
    ms_opt_managers

(* [order] lists every live node exactly once, no dead one, and each
   node after its arguments. *)
let is_live_topo_order g order =
  let pos = Array.make (Dfg.node_count g) (-1) in
  Array.iteri
    (fun i id -> if id >= 0 && id < Array.length pos && pos.(id) < 0 then pos.(id) <- i)
    order;
  let live = Dfg.live_nodes g in
  let before a n = pos.(a) >= 0 && pos.(a) < pos.(n) in
  Array.length order = List.length live
  && List.for_all
       (fun (n : Dfg.node) ->
         pos.(n.Dfg.id) >= 0 && Array.for_all (fun a -> before a n.Dfg.id) n.Dfg.args)
       live

(* [run_from] on legalisation's closing analysis and order, as Driver
   calls it: its info is a re-inference of the hoisted graph, its order
   a topological order of the hoisted graph, and its hoists and graph
   the re-infer fixpoint's. *)
let ms_opt_run_from_on_models () =
  List.iter
    (fun l ->
      let prm = Ckks.Params.at_l_max l in
      List.iter
        (fun model ->
          let what = Printf.sprintf "%s at l_max %d" model.Nn.Model.name l in
          let regioned = Resbm.Region.build (Nn.Lowering.lower model).Nn.Lowering.dfg in
          let config = Resbm.Variants.resbm_max.Resbm.Variants.config in
          let plan = Resbm.Btsmgr.plan ~config regioned prm in
          let outcome = Resbm.Plan.apply regioned prm plan in
          let g = outcome.Resbm.Plan.dfg in
          let oracle_g = Dfg.copy g in
          let r =
            Passes.Ms_opt.run_from ~info:outcome.Resbm.Plan.final_info
              ~order:outcome.Resbm.Plan.order prm g
          in
          checkb (what ^ ": info is a re-inference") true
            (r.Passes.Ms_opt.info = Scale_check.infer prm g);
          checkb (what ^ ": order") true (is_live_topo_order g r.Passes.Ms_opt.order);
          checki (what ^ ": hoists") (reference_ms_opt prm oracle_g) r.Passes.Ms_opt.hoists;
          checkb (what ^ ": graph") true (Dfg.export oracle_g = Dfg.export g))
        Nn.Model.[ tiny; lenet5; resnet20; resnet44; alexnet; vgg16; squeezenet; mobilenet ])
    [ 8; 16; 24 ]

let suite =
  [
    case "dce: removes dead chains" dce_removes_dead_chain;
    case "dce: keeps outputs" dce_keeps_outputs;
    case "cse: merges identical nodes" cse_merges_identical;
    case "cse: commutative canonicalisation" cse_commutative_add;
    case "cse: different freq kept apart" cse_respects_freq;
    case "cse: merges Figure 5 bootstraps" cse_merges_bootstraps_fig5;
    cse_transitive_chains;
    case "const-fold: collapses multiplier chains" const_fold_collapses_chain;
    case "const-fold: resolver arithmetic" const_fold_resolver_parses;
    case "const-fold: shared intermediates block folding" const_fold_keeps_shared_intermediates;
    case "Figure 5 pipeline reduces depth" fig5_pipeline_reduces_depth;
    case "ms-opt: hoists above rotations" ms_opt_hoists_above_rotate;
    case "ms-opt: stops at SMOs" ms_opt_hoists_through_mul_pair;
    case "ms-opt: respects sharing" ms_opt_respects_sharing;
    ms_opt_preserves_semantics;
    ms_opt_never_hurts;
    case "ms-opt: matches the re-infer fixpoint on models" ms_opt_matches_reference_on_models;
    ms_opt_matches_reference_random;
    case "ms-opt: run_from hands on a re-inference and an order" ms_opt_run_from_on_models;
    case "ms-opt: modswitch chain re-queues" ms_opt_chain_requeues;
    case "ms-opt: mul_cc x x wraps both operands" ms_opt_square_wraps_both_operands;
    case "ms-opt: no hoistable lint hint after the pass" ms_opt_leaves_no_hoistable_hint;
  ]
