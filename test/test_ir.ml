open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* --- Dfg builder and mutation ------------------------------------------ *)

let dfg_builder_basics () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let c = Dfg.const g "c" in
  let m = Dfg.mul_cp g x c in
  let s = Dfg.add_cc g m m in
  Dfg.set_outputs g [ s ];
  checki "nodes" 4 (Dfg.node_count g);
  checkb "valid" true (Dfg.validate g = Ok ());
  check (Alcotest.list Alcotest.int) "preds dedup" [ m ] (Dfg.preds g s);
  check (Alcotest.list Alcotest.int) "succs" [ m ] (Dfg.succs g x |> List.filter (( = ) m))

let dfg_mul_cc_inserts_relin () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.mul_cc g x x in
  checkb "returned node is relin" true ((Dfg.node g r).Dfg.kind = Op.Relin);
  match (Dfg.node g r).Dfg.args with
  | [| m |] -> checkb "arg is mul_cc" true ((Dfg.node g m).Dfg.kind = Op.Mul_cc)
  | _ -> Alcotest.fail "relin arity"

let dfg_type_checks () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let c = Dfg.const g "c" in
  checkb "pt in add_cc" true
    (match Dfg.add_cc g x c with _ -> false | exception Invalid_argument _ -> true);
  checkb "ct in pt slot" true
    (match Dfg.add_cp g x x with _ -> false | exception Invalid_argument _ -> true);
  checkb "rotate of pt" true
    (match Dfg.rotate g c 1 with _ -> false | exception Invalid_argument _ -> true);
  checkb "freq zero" true
    (match Dfg.rotate g ~freq:0 x 1 with _ -> false | exception Invalid_argument _ -> true)

let dfg_insert_after () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r1 = Dfg.rotate g x 1 in
  let r2 = Dfg.rotate g x 2 in
  let n = Dfg.insert_after g ~tail:x ~heads:[ r1 ] Op.Modswitch in
  check (Alcotest.list Alcotest.int) "r1 rewired" [ n ] (Dfg.preds g r1);
  check (Alcotest.list Alcotest.int) "r2 untouched" [ x ] (Dfg.preds g r2);
  checkb "n's arg is x" true ((Dfg.node g n).Dfg.args = [| x |]);
  checkb "valid after surgery" true (Dfg.validate g = Ok ())

let dfg_insert_after_shared () =
  (* one inserted node serves several heads *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r1 = Dfg.rotate g x 1 in
  let r2 = Dfg.rotate g x 2 in
  let n = Dfg.insert_after g ~tail:x ~heads:[ r1; r2 ] Op.Rescale in
  check (Alcotest.list Alcotest.int) "r1 via n" [ n ] (Dfg.preds g r1);
  check (Alcotest.list Alcotest.int) "r2 via n" [ n ] (Dfg.preds g r2);
  checki "x has one user" 1 (List.length (Dfg.succs g x))

let dfg_wrap_operand () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let y = Dfg.input g "y" in
  let s = Dfg.add_cc g x y in
  let w = Dfg.wrap_operand g ~user:s ~arg_index:1 Op.Modswitch in
  checkb "arg1 rewired" true ((Dfg.node g s).Dfg.args.(1) = w);
  checkb "arg0 untouched" true ((Dfg.node g s).Dfg.args.(0) = x);
  checkb "valid" true (Dfg.validate g = Ok ())

let dfg_set_arg_and_users () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let y = Dfg.input g "y" in
  let s = Dfg.add_cc g x x in
  Dfg.set_arg g ~user:s ~arg_index:0 y;
  checkb "y now used" true (List.mem s (Dfg.succs g y));
  (* x still used through arg 1 *)
  checkb "x still used" true (List.mem s (Dfg.succs g x));
  Dfg.set_arg g ~user:s ~arg_index:1 y;
  checkb "x fully released" false (List.mem s (Dfg.succs g x))

let dfg_replace_uses_and_kill () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let a = Dfg.rotate g x 1 in
  let b = Dfg.rotate g x 1 in
  let s = Dfg.add_cc g a b in
  Dfg.set_outputs g [ s ];
  Dfg.replace_uses g ~old_id:b ~new_id:a;
  checkb "b unused" true ((Dfg.node g b).Dfg.users = []);
  Dfg.kill g b;
  checkb "b dead" true (Dfg.node g b).Dfg.dead;
  checkb "valid" true (Dfg.validate g = Ok ());
  checki "live nodes" 3 (List.length (Dfg.live_nodes g))

(* Dfg.succs returns use lists as they are, so every mutation must keep
   them duplicate-free, including when one user reads a node twice. *)
let dfg_users_stay_duplicate_free () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let y = Dfg.input g "y" in
  let s = Dfg.add_cc g x x in
  let t = Dfg.add_cc g s y in
  Dfg.set_outputs g [ t ];
  let no_dups what =
    List.iter
      (fun (n : Dfg.node) ->
        checki
          (Printf.sprintf "%s: users of %d" what n.Dfg.id)
          (List.length (List.sort_uniq compare n.Dfg.users))
          (List.length n.Dfg.users))
      (Dfg.live_nodes g);
    checkb (what ^ ": valid") true (Dfg.validate g = Ok ())
  in
  no_dups "built";
  let n = Dfg.insert_after g ~tail:x ~heads:[ s; s ] Op.Modswitch in
  no_dups "insert_after with a repeated head";
  checki "s reads n in both slots, listed once" 1 (List.length (Dfg.succs g n));
  Dfg.set_arg g ~user:s ~arg_index:0 y;
  Dfg.set_arg g ~user:s ~arg_index:1 y;
  no_dups "set_arg onto a node already used";
  check (Alcotest.list Alcotest.int) "y's users" [ s; t ] (List.sort compare (Dfg.succs g y));
  ignore (Dfg.wrap_operand g ~user:s ~arg_index:0 Op.Modswitch);
  no_dups "wrap_operand of a twice-read operand";
  Dfg.replace_uses g ~old_id:s ~new_id:y;
  no_dups "replace_uses onto an existing operand"

let dfg_kill_guards () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g x 1 in
  Dfg.set_outputs g [ r ];
  checkb "kill used node rejected" true
    (match Dfg.kill g x with _ -> false | exception Invalid_argument _ -> true);
  checkb "kill output rejected" true
    (match Dfg.kill g r with _ -> false | exception Invalid_argument _ -> true)

let dfg_validate_catches_raw_mul () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc_raw g x x in
  let r = Dfg.rotate g m 1 in
  Dfg.set_outputs g [ r ];
  checkb "mul_cc needs relin consumer" true (Dfg.validate g <> Ok ())

let dfg_copy_independent () =
  let g = fig3_poly () in
  let g' = Dfg.copy g in
  let x' = Dfg.input g' "extra" in
  ignore x';
  checkb "copy grew" true (Dfg.node_count g' > Dfg.node_count g);
  checkb "original valid" true (Dfg.validate g = Ok ());
  checkb "copy valid" true (Dfg.validate g' = Ok ())

let dfg_topo_is_topological =
  qcheck ~count:50 "topo order respects def-use"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      let order = Dfg.topo_order g in
      let pos = Hashtbl.create 64 in
      List.iteri (fun i id -> Hashtbl.add pos id i) order;
      List.for_all
        (fun n ->
          Array.for_all
            (fun a -> Hashtbl.find pos a < Hashtbl.find pos n.Dfg.id)
            n.Dfg.args)
        (Dfg.live_nodes g))

let random_dfgs_valid =
  qcheck ~count:50 "random DFGs are structurally valid"
    (random_dfg_gen ~max_nodes:60 ~max_depth:8)
    (fun params -> Dfg.validate (build_random_dfg params) = Ok ())

(* --- Depth --------------------------------------------------------------- *)

let depth_fig3 () =
  let g = fig3_poly () in
  checki "max depth" 3 (Depth.max_depth g)

let depth_fig1 () = checki "fig1 depth" 6 (Depth.max_depth (fig1_block ()))

let depth_smo_transparent () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc g x x in
  let r = Dfg.rescale g m in
  let b = Dfg.bootstrap g ~target_level:3 r in
  Dfg.set_outputs g [ b ];
  checki "SMOs transparent" 1 (Depth.max_depth g)

(* --- Scale check --------------------------------------------------------- *)

let scale_check_legal_chain () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc g x x in
  let r = Dfg.rescale g m in
  Dfg.set_outputs g [ r ];
  match Scale_check.run prm g with
  | Ok info ->
      checki "mul scale" 112 info.(m - 1).Scale_check.scale_bits;
      (* m is the relin; m-1 the raw mul — both carry the product scale *)
      checki "relin scale" 112 info.(m).Scale_check.scale_bits;
      checki "rescaled scale" 56 info.(r).Scale_check.scale_bits;
      checki "rescaled level" (prm.Ckks.Params.input_level - 1) info.(r).Scale_check.level
  | Error vs ->
      Alcotest.failf "unexpected violations: %a"
        (Format.pp_print_list Scale_check.pp_violation)
        vs

let scale_check_add_scale_mismatch () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cp g x (Dfg.const g "c") in
  let s = Dfg.add_cc g x m in
  Dfg.set_outputs g [ s ];
  checkb "scale mismatch caught" true (Scale_check.run prm g <> Ok [||] && Result.is_error (Scale_check.run prm g))

let scale_check_level_mismatch () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let low = Dfg.modswitch g x in
  let s = Dfg.add_cc g x low in
  Dfg.set_outputs g [ s ];
  checkb "level mismatch caught" true (Result.is_error (Scale_check.run prm g))

let scale_check_capacity_overflow () =
  let g = Dfg.create () in
  let x = Dfg.input g ~level:0 "x" in
  let m = Dfg.mul_cc g x x in
  Dfg.set_outputs g [ m ];
  checkb "overflow caught" true (Result.is_error (Scale_check.run prm g))

let scale_check_fig1a_fails () =
  (* the unmanaged Figure 1a program cannot pass *)
  checkb "unmanaged block rejected" true
    (Result.is_error (Scale_check.run Ckks.Params.fig1 (fig1_block ())))

let scale_check_const_flexible_for_add () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cp g x (Dfg.const g "w") in
  let r = Dfg.rescale g m in
  let s = Dfg.add_cp g r (Dfg.const g "b") in
  Dfg.set_outputs g [ s ];
  match Scale_check.run prm g with
  | Ok info ->
      (* the bias constant adopted the ciphertext's scale *)
      let b_const = (Dfg.node g s).Dfg.args.(1) in
      checki "bias at ct scale" info.(r).Scale_check.scale_bits
        info.(b_const).Scale_check.scale_bits
  | Error _ -> Alcotest.fail "expected legal graph"

let scale_check_const_conflict () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let c = Dfg.const g "shared" in
  (* same constant multiplied (waterline) and added (input scale != q_w
     would conflict) — with default params both resolve to 56, so force a
     conflict via a rescaled value *)
  let m = Dfg.mul_cp g x c in
  let r = Dfg.rescale g m in
  let m2 = Dfg.mul_cp g r c in
  let s = Dfg.add_cp g m2 c in
  Dfg.set_outputs g [ s ];
  (* c used by mul (wants waterline=56) and by add on a 112-bit value *)
  checkb "conflicting constant caught" true (Result.is_error (Scale_check.run prm g))

let scale_check_infer_never_fails =
  qcheck ~count:50 "lenient inference runs on unmanaged graphs"
    (random_dfg_gen ~max_nodes:50 ~max_depth:8)
    (fun params ->
      let g = build_random_dfg params in
      let info = Scale_check.infer prm g in
      Array.length info = Dfg.node_count g)

(* --- Latency ------------------------------------------------------------- *)

let latency_simple () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g x 1 in
  Dfg.set_outputs g [ r ];
  let expect = Ckks.Cost_model.cost Ckks.Cost_model.Rotate ~level:prm.Ckks.Params.input_level in
  check_float ~eps:1e-9 "one rotation" expect (Latency.total prm g)

let latency_freq_weighted () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g ~freq:7 x 1 in
  Dfg.set_outputs g [ r ];
  let unit = Ckks.Cost_model.cost Ckks.Cost_model.Rotate ~level:prm.Ckks.Params.input_level in
  check_float ~eps:1e-9 "freq multiplies" (7.0 *. unit) (Latency.total prm g)

let latency_bootstrap_target_level () =
  let g = Dfg.create () in
  let x = Dfg.input g ~level:1 "x" in
  let b = Dfg.bootstrap g ~target_level:5 x in
  Dfg.set_outputs g [ b ];
  let expect = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:5 in
  check_float ~eps:1e-9 "charged at target" expect (Latency.total prm g)

let latency_by_kind_sums () =
  let g = fig3_poly () in
  let parts = Latency.by_kind prm g in
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 parts in
  check_float ~eps:1e-6 "decomposition sums to total" (Latency.total prm g) total

(* --- Stats ---------------------------------------------------------------- *)

let stats_counts () =
  let g = fig1_block () in
  let s = Stats.collect g in
  checki "mul_cc count" 3 (Option.value (List.assoc_opt Ckks.Cost_model.Mul_cc s.Stats.static_by_op) ~default:0);
  checki "relin count" 3 (Option.value (List.assoc_opt Ckks.Cost_model.Relin s.Stats.static_by_op) ~default:0);
  checki "mul_cp count" 8 (Option.value (List.assoc_opt Ckks.Cost_model.Mul_cp s.Stats.static_by_op) ~default:0);
  checki "depth" 6 s.Stats.max_depth;
  checki "no bootstraps yet" 0 s.Stats.bootstrap_count

let stats_freq_weighted () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rescale g ~freq:5 x in
  Dfg.set_outputs g [ r ];
  let s = Stats.collect g in
  checki "executed rescales" 5 s.Stats.executed_rescales;
  checki "static" 1 (Option.value (List.assoc_opt Ckks.Cost_model.Rescale s.Stats.static_by_op) ~default:0)

let stats_bootstrap_histogram () =
  let g = Dfg.create () in
  let x = Dfg.input g ~level:1 "x" in
  let b1 = Dfg.bootstrap g ~target_level:5 x in
  let b2 = Dfg.bootstrap g ~target_level:5 x in
  let b3 = Dfg.bootstrap g ~target_level:12 x in
  Dfg.set_outputs g [ b1; b2; b3 ];
  let s = Stats.collect g in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "histogram sorted desc" [ (12, 1); (5, 2) ] s.Stats.bootstrap_levels

(* --- Legalize -------------------------------------------------------------- *)

(* Legalisation on the lenient analysis' levels, the contract Plan.apply's
   own propagation is held to. *)
let legalize g =
  let levels = Array.map (fun i -> i.Scale_check.level) (Scale_check.infer prm g) in
  Legalize.run prm g ~levels ~order:(Dfg.topo_order g)

let legalize_level_mismatch () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let low = Dfg.modswitch g (Dfg.modswitch g x) in
  let s = Dfg.add_cc g x low in
  Dfg.set_outputs g [ s ];
  (match legalize g with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "legalisation failed");
  checkb "now legal" true (Result.is_ok (Scale_check.run prm g));
  (* two modswitches were inserted on the higher operand *)
  let ms =
    List.length
      (List.filter (fun n -> n.Dfg.kind = Op.Modswitch) (Dfg.live_nodes g))
  in
  checki "4 modswitches total" 4 ms

let legalize_shares_chains () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let low = Dfg.modswitch g x in
  let s1 = Dfg.add_cc g x low in
  let low2 = Dfg.modswitch g low in
  let s2 = Dfg.add_cc g s1 low2 in
  Dfg.set_outputs g [ s2 ];
  (match legalize g with Ok _ -> () | Error _ -> Alcotest.fail "legalize");
  checkb "legal" true (Result.is_ok (Scale_check.run prm g))

let legalize_reports_scale_mismatch () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cp g x (Dfg.const g "c") in
  let s = Dfg.add_cc g x m in
  Dfg.set_outputs g [ s ];
  checkb "scale mismatch is not repairable" true (Result.is_error (legalize g))

(* --- Interp ----------------------------------------------------------------- *)

let interp_matches_plain () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc g x x in
  let r = Dfg.rescale g m in
  let s = Dfg.add_cc g r r in
  Dfg.set_outputs g [ s ];
  let dim = 8 in
  let input = input_env ~dim 3L in
  let ev = Ckks.Evaluator.create prm in
  let env = { Interp.inputs = [ ("x", input) ]; consts = const_env ~dim } in
  let result = Interp.run ev g env in
  (match result.Interp.outputs with
  | [ out ] ->
      let d = Ckks.Evaluator.decrypt ev out in
      Array.iteri
        (fun i v ->
          let expect = 2.0 *. input.(i) *. input.(i) in
          checkb "close to plain" true (Float.abs (v -. expect) < 1e-5))
        d
  | _ -> Alcotest.fail "one output expected");
  checkb "latency positive" true (result.Interp.latency_ms > 0.0);
  checki "ops counted" 4 result.Interp.op_count

let interp_missing_input () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  Dfg.set_outputs g [ x ];
  let ev = Ckks.Evaluator.create prm in
  checkb "missing input raises" true
    (match Interp.run ev g { Interp.inputs = []; consts = const_env ~dim:4 } with
    | _ -> false
    | exception Interp.Missing_input "x" -> true)

let interp_rejects_illegal () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let low = Dfg.modswitch g x in
  let s = Dfg.add_cc g x low in
  Dfg.set_outputs g [ s ];
  let ev = Ckks.Evaluator.create prm in
  checkb "illegal graph rejected" true
    (match
       Interp.run ev g
         { Interp.inputs = [ ("x", [| 1.0 |]) ]; consts = const_env ~dim:1 }
     with
    | _ -> false
    | exception Ckks.Evaluator.Fhe_error _ -> true)

let interp_latency_equals_static =
  qcheck ~count:20 "interpreted latency equals the static model"
    (random_dfg_gen ~max_nodes:25 ~max_depth:3)
    (fun params ->
      let g = build_random_dfg params in
      (* manage it first so it is legal *)
      match Resbm.Driver.compile prm g with
      | managed, report ->
          let dim = 4 in
          let ev = Ckks.Evaluator.create prm in
          let env =
            { Interp.inputs = [ ("x", input_env ~dim 5L) ]; consts = const_env ~dim }
          in
          let result = Interp.run ev managed env in
          Float.abs (result.Interp.latency_ms -. report.Resbm.Report.latency_ms) < 1e-3
      | exception Resbm.Btsmgr.No_plan _ -> true)

(* A fault-free ResNet-20 run, slot for slot: its digest was taken before
   the evaluator's slot kernels became loops, which must not move a bit. *)
let interp_resnet20_is_pinned () =
  let prm, managed, env, _ = resnet20_env ~dim:32 in
  let result = Interp.run (Ckks.Evaluator.create ~seed:3L prm) managed env in
  checki "ops" 14213 result.Interp.op_count;
  checkb "outputs finite" true
    (slots_finite result.Interp.outputs);
  check Alcotest.string "output slot digest" "a3babac790c78c43434ca6e80456d37b"
    (slots_digest result.Interp.outputs)

(* A program is prepared for one parameter set; a session on an
   evaluator with other parameters would price and validate against the
   wrong contract, so it is refused. *)
let session_rejects_foreign_params () =
  let prm16, managed, _, _ = resnet20_env ~dim:8 in
  let program = Interp.Program.make prm16 managed in
  ignore (Interp.Session.create program (Ckks.Evaluator.create prm16));
  let other = Ckks.Evaluator.create (Ckks.Params.with_l_max prm16 9) in
  match Interp.Session.create program other with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* [Program.make]'s one sort is also the acyclicity proof, so the scale
   check skips its own cycle pass; a cyclic graph has no sort and must
   still be reported as one, by [Dfg.validate], [Scale_check.run] and
   [Program.make]. *)
let cyclic_graph_is_reported () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let a = Dfg.add_cc g x x in
  let b = Dfg.rotate g a 1 in
  Dfg.set_arg g ~user:a ~arg_index:1 b;
  Dfg.set_outputs g [ b ];
  let cycle m = m = "graph has a cycle" in
  (match Dfg.validate g with
  | Error ms -> checkb "validate names the cycle" true (List.exists cycle ms)
  | Ok () -> Alcotest.fail "validate accepted a cycle");
  (match Scale_check.run Ckks.Params.default g with
  | Error vs ->
      checkb "the scale check names the cycle" true
        (List.exists (fun v -> cycle v.Scale_check.message) vs)
  | Ok _ -> Alcotest.fail "the scale check accepted a cycle");
  match Interp.Program.make Ckks.Params.default g with
  | _ -> Alcotest.fail "Program.make accepted a cycle"
  | exception Ckks.Evaluator.Fhe_error e ->
      checkb "Program.make raises Illegal_graph" true (e.Ckks.Evaluator.cause = Ckks.Evaluator.Illegal_graph)

(* The noise summary as the interpreter once computed it: a stable sort
   of every executed ciphertext's headroom, listed in reverse execution
   order, cut to five.  [err] is each node's last traced noise, which is
   the noise bound the session records for it.  The one-pass top-5
   selection in [Interp] must match it bit for bit, ties included. *)
let full_sort_noise_summary g order tr =
  let err = Array.make (Dfg.node_count g) 0.0 in
  List.iter
    (fun (e : Obs.Trace.op_event) ->
      if e.Obs.Trace.node >= 0 then err.(e.Obs.Trace.node) <- e.Obs.Trace.noise_after)
    (Obs.Trace.op_events tr);
  let is_ct id = Op.produces_ct (Dfg.node g id).Dfg.kind in
  let headroom id = Obs.Trace.headroom_bits err.(id) in
  let cts = List.filter is_ct (Array.to_list order) in
  let all = List.rev_map (fun id -> (id, headroom id)) cts in
  let min_bits, min_node =
    List.fold_left
      (fun (b, n) id -> if headroom id < b then (headroom id, id) else (b, n))
      (Float.infinity, -1) cts
  in
  {
    Interp.min_headroom_bits = min_bits;
    min_headroom_node = min_node;
    bootstrap_headroom =
      List.filter_map
        (fun id ->
          match (Dfg.node g id).Dfg.kind, (Dfg.node g id).Dfg.args with
          | Op.Bootstrap _, [| a |] when is_ct a -> Some (id, headroom a)
          | _ -> None)
        cts;
    noisiest =
      List.filteri (fun i _ -> i < 5) (List.sort (fun (_, a) (_, b) -> compare a b) all);
  }

let render_noise_summary (n : Interp.noise_summary) =
  let pairs l = List.map (fun (id, b) -> Printf.sprintf "%d:%h" id b) l in
  Printf.sprintf "min %h at %d" n.Interp.min_headroom_bits n.Interp.min_headroom_node
  :: ("bootstraps" :: pairs n.Interp.bootstrap_headroom)
  @ ("noisiest" :: pairs n.Interp.noisiest)

let noise_summary_matches_full_sort () =
  let l_max = 16 and dim = 8 in
  let prm16 = Ckks.Params.at_l_max l_max in
  let summarised name result managed tr =
    checki (name ^ ": no trace events dropped") 0 (Obs.Trace.dropped tr);
    let order = Interp.Program.order (Interp.Program.make prm16 managed) in
    check
      Alcotest.(list string)
      (name ^ ": noise summary = full-sort reference")
      (render_noise_summary (full_sort_noise_summary managed order tr))
      (render_noise_summary (Lazy.force result.Interp.noise))
  in
  let ties = ref 0 in
  List.iter
    (fun (model : Nn.Model.t) ->
      let lowered = Nn.Lowering.lower model in
      let managed, _ = Resbm.Driver.compile prm16 lowered.Nn.Lowering.dfg in
      let env =
        {
          Interp.inputs =
            [
              ( lowered.Nn.Lowering.input_name,
                (Nn.Dataset.images ~seed:7L ~dim ~count:1 ()).(0) );
            ];
          consts = Nn.Lowering.resolver lowered ~dim;
        }
      in
      let tr = Obs.Trace.create () in
      let ev = Ckks.Evaluator.create ~seed:7L prm16 in
      let result = Interp.run ~trace:tr ev managed env in
      (match (Lazy.force result.Interp.noise).Interp.noisiest with
      | (_, a) :: (_, b) :: _ when a = b -> incr ties
      | _ -> ());
      summarised model.Nn.Model.name result managed tr)
    (Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ]);
  checkb "some model's noisiest list holds a tie" true (!ties > 0);
  (* A faulted supervised run: rollbacks re-execute spans and a panic
     refresh rewrites a node's noise after it first ran. *)
  let p, managed, env, region_of = resnet20_env ~dim:32 in
  let inj =
    Ckks.Fault.create
      {
        Ckks.Fault.seed = 0x2EC1L;
        budget = 6;
        rules =
          [
            Ckks.Fault.rule Ckks.Fault.Noise_spike ~prob:0.01 ~mag:8.0;
            Ckks.Fault.rule Ckks.Fault.Slot_corrupt ~prob:0.01 ~mag:(-6.0);
            Ckks.Fault.rule Ckks.Fault.Transient ~prob:0.005 ~mag:0.0;
          ];
      }
  in
  let tr = Obs.Trace.create () in
  let result, stats =
    Ckks.Fault.with_faults inj (fun () ->
        Resilience.Recovery.run ~trace:tr ~region_of
          (Ckks.Evaluator.create ~seed:9L p)
          managed env)
  in
  checkb "the faulted run rolled back" true (stats.Resilience.Recovery.retries > 0);
  summarised "faulted resnet20" result managed tr

(* --- Liveness ----------------------------------------------------------------- *)

(* The list-and-Hashtbl walk [Liveness.analyse] replaced, kept as its
   oracle: operands freed in [Dfg.preds] order from a table of live
   sizes. *)
let liveness_oracle prm g =
  let info = Scale_check.infer prm g in
  let sched = Liveness.schedule g in
  let live = Hashtbl.create 64 in
  let live_bytes = ref 0.0 and live_count = ref 0 in
  let peak_live = ref 0 and peak_bytes = ref 0.0 and total = ref 0 in
  Array.iteri
    (fun pos id ->
      let node = Dfg.node g id in
      if Op.produces_ct node.Dfg.kind then begin
        incr total;
        let bytes =
          Liveness.ciphertext_bytes prm ~level:(max info.(id).Scale_check.level 0)
        in
        Hashtbl.replace live id bytes;
        live_bytes := !live_bytes +. bytes;
        incr live_count;
        if !live_count > !peak_live then peak_live := !live_count;
        if !live_bytes > !peak_bytes then peak_bytes := !live_bytes
      end;
      List.iter
        (fun a ->
          if sched.Liveness.last_use.(a) = pos then
            match Hashtbl.find_opt live a with
            | Some bytes ->
                Hashtbl.remove live a;
                live_bytes := !live_bytes -. bytes;
                decr live_count
            | None -> ())
        (Dfg.preds g id))
    sched.Liveness.order;
  {
    Liveness.total_ciphertexts = !total;
    peak_live = !peak_live;
    peak_bytes = !peak_bytes;
    final_live = !live_count;
  }

let same_liveness (a : Liveness.report) (b : Liveness.report) =
  a.Liveness.total_ciphertexts = b.Liveness.total_ciphertexts
  && a.Liveness.peak_live = b.Liveness.peak_live
  && Int64.equal (Int64.bits_of_float a.Liveness.peak_bytes)
       (Int64.bits_of_float b.Liveness.peak_bytes)
  && a.Liveness.final_live = b.Liveness.final_live

let liveness_matches_oracle =
  qcheck ~count:60 "liveness report equals the Hashtbl oracle (raw and managed)"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      same_liveness (liveness_oracle prm g) (Liveness.analyse prm g)
      &&
      match Resbm.Driver.compile prm g with
      | managed, _ ->
          same_liveness (liveness_oracle prm managed) (Liveness.analyse prm managed)
      | exception Resbm.Btsmgr.No_plan _ -> true)

let suite =
  [
    case "dfg: builder basics" dfg_builder_basics;
    case "dfg: mul_cc auto-relin" dfg_mul_cc_inserts_relin;
    case "dfg: ct/pt type checks" dfg_type_checks;
    case "dfg: insert_after rewires selected heads" dfg_insert_after;
    case "dfg: insert_after shares one node" dfg_insert_after_shared;
    case "dfg: wrap_operand" dfg_wrap_operand;
    case "dfg: set_arg maintains users" dfg_set_arg_and_users;
    case "dfg: replace_uses and kill" dfg_replace_uses_and_kill;
    case "dfg: mutations keep use lists duplicate-free" dfg_users_stay_duplicate_free;
    case "dfg: kill guards" dfg_kill_guards;
    case "dfg: validate catches unrelinearised mul" dfg_validate_catches_raw_mul;
    case "dfg: copy is independent" dfg_copy_independent;
    dfg_topo_is_topological;
    random_dfgs_valid;
    case "depth: fig3 polynomial" depth_fig3;
    case "depth: fig1 block" depth_fig1;
    case "depth: SMOs transparent" depth_smo_transparent;
    case "scale_check: legal mul-rescale chain" scale_check_legal_chain;
    case "scale_check: add scale mismatch" scale_check_add_scale_mismatch;
    case "scale_check: add level mismatch" scale_check_level_mismatch;
    case "scale_check: capacity overflow" scale_check_capacity_overflow;
    case "scale_check: unmanaged Figure 1a fails" scale_check_fig1a_fails;
    case "scale_check: flexible constant scales" scale_check_const_flexible_for_add;
    case "scale_check: conflicting constant scales" scale_check_const_conflict;
    scale_check_infer_never_fails;
    case "latency: single op" latency_simple;
    case "latency: freq weighting" latency_freq_weighted;
    case "latency: bootstrap at target level" latency_bootstrap_target_level;
    case "latency: by-kind decomposition" latency_by_kind_sums;
    case "stats: op counts" stats_counts;
    case "stats: freq weighting" stats_freq_weighted;
    case "stats: bootstrap histogram" stats_bootstrap_histogram;
    case "legalize: inserts modswitch chains" legalize_level_mismatch;
    case "legalize: shares chains" legalize_shares_chains;
    case "legalize: scale mismatch unrepairable" legalize_reports_scale_mismatch;
    case "interp: matches plain arithmetic" interp_matches_plain;
    case "interp: missing input" interp_missing_input;
    case "interp: rejects illegal graphs" interp_rejects_illegal;
    interp_latency_equals_static;
    case "interp: ResNet-20 output slots pinned" interp_resnet20_is_pinned;
    case "interp: top-5 noise summary equals the full-sort reference"
      noise_summary_matches_full_sort;
    case "interp: a session refuses an evaluator with other parameters"
      session_rejects_foreign_params;
    case "interp: a cyclic graph is reported as one" cyclic_graph_is_reported;
    liveness_matches_oracle;
  ]
