(* The expression DSL, the static noise analyser, and the C emitter. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

let contains s sub =
  let ls = String.length sub and ln = String.length s in
  let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* --- Lang ------------------------------------------------------------------- *)

let lang_dispatch () =
  let open Fhe_lang.Lang in
  let x = input "x" in
  let g = compile ~outputs:[ add x (sym "w") ] in
  let kinds = List.map (fun n -> n.Dfg.kind) (Dfg.live_nodes g) in
  checkb "ct+pt is add_cp" true (List.mem Op.Add_cp kinds);
  let g = compile ~outputs:[ add x x ] in
  let kinds = List.map (fun n -> n.Dfg.kind) (Dfg.live_nodes g) in
  checkb "ct+ct is add_cc" true (List.mem Op.Add_cc kinds);
  let g = compile ~outputs:[ mul x (lit 0.5) ] in
  let kinds = List.map (fun n -> n.Dfg.kind) (Dfg.live_nodes g) in
  checkb "ct*lit is mul_cp" true (List.mem Op.Mul_cp kinds)

let lang_literal_folding () =
  let open Fhe_lang.Lang in
  let e = mul (lit 2.0) (lit 3.0) in
  let g = compile ~outputs:[ mul (input "x") e ] in
  (* folded to one constant: exactly one Const node *)
  let consts =
    List.filter (fun n -> match n.Dfg.kind with Op.Const _ -> true | _ -> false)
      (Dfg.live_nodes g)
  in
  checki "one folded literal" 1 (List.length consts)

let lang_hash_consing () =
  let open Fhe_lang.Lang in
  let x = input "x" in
  (* x^2 appears twice structurally; must lower once *)
  let a = mul (square x) (sym "a") in
  let b = mul (square x) (sym "b") in
  let g = compile ~outputs:[ add a b ] in
  let mul_ccs =
    List.filter (fun n -> n.Dfg.kind = Op.Mul_cc) (Dfg.live_nodes g)
  in
  checki "x^2 shared" 1 (List.length mul_ccs)

let lang_commutative_sharing () =
  let open Fhe_lang.Lang in
  let x = input "x" and y = input "y" in
  let g = compile ~outputs:[ add (add x y) (add y x) ] in
  let adds = List.filter (fun n -> n.Dfg.kind = Op.Add_cc) (Dfg.live_nodes g) in
  (* x+y and y+x share; plus the outer add = 2 *)
  checki "commutative sharing" 2 (List.length adds)

let lang_rotate_zero_is_identity () =
  let open Fhe_lang.Lang in
  let x = input "x" in
  let g = compile ~outputs:[ rotate x 0 ] in
  checkb "no rotate node" true
    (List.for_all
       (fun n -> match n.Dfg.kind with Op.Rotate _ -> false | _ -> true)
       (Dfg.live_nodes g))

let lang_pt_pt_rejected () =
  let open Fhe_lang.Lang in
  checkb "sym+sym rejected" true
    (match add (sym "a") (sym "b") with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "plaintext output rejected" true
    (match compile ~outputs:[ lit 1.0 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let lang_end_to_end () =
  let open Fhe_lang.Lang in
  let open Fhe_lang.Lang.Infix in
  let x = input "x" in
  let e = (square x *! 0.5) + (x *! 0.25) +! 0.125 in
  let g = compile ~outputs:[ e ] in
  checkb "valid" true (Dfg.validate g = Ok ());
  let managed, _ = Resbm.Driver.compile prm g in
  let dim = 4 in
  let values = [| 0.5; -0.5; 0.25; 0.0 |] in
  let consts = resolver (fun _ -> Array.make dim 0.0) ~dim in
  let out =
    match Nn.Plain_eval.run managed ~input:(fun _ -> values) ~consts with
    | [ o ] -> o
    | _ -> Alcotest.fail "one output"
  in
  Array.iteri
    (fun i v ->
      let x = values.(i) in
      check_float ~eps:1e-12 "quadratic" ((0.5 *. x *. x) +. (0.25 *. x) +. 0.125) v)
    out

let lang_dot_matches_manual =
  qcheck ~count:30 "dot equals an explicit rotate-mul-accumulate"
    QCheck2.Gen.(int_range 1 6)
    (fun taps ->
      let open Fhe_lang.Lang in
      let x = input "x" in
      let g = compile ~outputs:[ dot x "k" ~taps ~stride:2 ] in
      let dim = 16 in
      let base name =
        let rng = Ckks.Prng.create (Int64.of_int (Hashtbl.hash name)) in
        Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-0.5) ~hi:0.5)
      in
      let consts = resolver base ~dim in
      let values = input_env ~dim 41L in
      let out =
        match Nn.Plain_eval.run g ~input:(fun _ -> values) ~consts with
        | [ o ] -> o
        | _ -> [||]
      in
      (* manual reference *)
      let expect =
        Array.init dim (fun i ->
            let acc = ref 0.0 in
            for t = 0 to taps - 1 do
              let w = (base (Printf.sprintf "k_w%d" t)).(i) in
              acc := !acc +. (values.((i + (t * 2)) mod dim) *. w)
            done;
            !acc)
      in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) out expect)

let lang_poly_odd () =
  let open Fhe_lang.Lang in
  let x = input "x" in
  let g = compile ~outputs:[ poly_odd x [| 1.5; -0.5; 0.25 |] ] in
  let dim = 4 in
  let values = [| 0.3; -0.7; 0.1; 0.9 |] in
  let consts = resolver (fun _ -> Array.make dim 0.0) ~dim in
  (match Nn.Plain_eval.run g ~input:(fun _ -> values) ~consts with
  | [ out ] ->
      Array.iteri
        (fun i v ->
          let x = values.(i) in
          let expect = (1.5 *. x) -. (0.5 *. (x ** 3.0)) +. (0.25 *. (x ** 5.0)) in
          checkb "odd poly" true (Float.abs (v -. expect) < 1e-12))
        out
  | _ -> Alcotest.fail "one output");
  checki "depth-efficient power basis" 4 (Depth.max_depth g)

(* --- Noise_check ----------------------------------------------------------------- *)

let noise_grows_with_depth () =
  let shallow = fig3_poly () in
  let managed, _ = Resbm.Driver.compile prm shallow in
  let r = Noise_check.analyse prm managed in
  checkb "finite precision" true (Float.is_finite r.Noise_check.output_precision_bits);
  checkb "high precision at depth 3" true (r.Noise_check.output_precision_bits > 20.0)

let noise_bootstrap_floor () =
  (* once a bootstrap is involved, precision is capped near its 22 bits *)
  let g = Dfg.create () in
  let x = Dfg.input g ~level:1 "x" in
  let b = Dfg.bootstrap g ~target_level:5 x in
  Dfg.set_outputs g [ b ];
  let r = Noise_check.analyse prm g in
  checkb "bootstrap caps precision" true (r.Noise_check.output_precision_bits < 23.0);
  checkb "but stays near it" true (r.Noise_check.output_precision_bits > 20.0)

let noise_prediction_holds_end_to_end =
  qcheck ~count:10 "static prediction covers the measured error"
    (random_dfg_gen ~max_nodes:25 ~max_depth:5)
    (fun params ->
      let g = build_random_dfg params in
      match Resbm.Driver.compile prm g with
      | managed, _ ->
          let report = Noise_check.analyse prm managed in
          let dim = 4 in
          let input = Array.map (fun v -> 0.5 *. v) (input_env ~dim 43L) in
          let consts name = Array.map (fun v -> 0.5 *. v) (const_env ~dim name) in
          let ev = Ckks.Evaluator.create prm in
          let result = Interp.run ev managed { Interp.inputs = [ ("x", input) ]; consts } in
          let plain = Nn.Plain_eval.run managed ~input:(fun _ -> input) ~consts in
          let measured =
            List.fold_left2
              (fun acc ct expect ->
                let d = Ckks.Evaluator.decrypt ev ct in
                Array.fold_left Float.max acc
                  (Array.mapi (fun i v -> Float.abs (v -. expect.(i))) d))
              0.0 result.Interp.outputs plain
          in
          Noise_check.predicts report ~measured
      | exception Resbm.Btsmgr.No_plan _ -> true)

let noise_magnitude_tracking () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let s = Dfg.add_cc g x x in
  Dfg.set_outputs g [ s ];
  let r = Noise_check.analyse ~input_magnitude:0.5 prm g in
  check_float ~eps:1e-12 "magnitudes add" 1.0 r.Noise_check.per_node.(s).Noise_check.magnitude

(* --- Emit ------------------------------------------------------------------------- *)

let emit_structure () =
  let g = fig1_block () in
  let p = Ckks.Params.fig1 in
  let managed, _ = Resbm.Driver.compile p g in
  let code = Emit.to_string ~program_name:"resnet_block" p managed in
  checkb "header" true (contains code "typedef struct ciphertext *CIPHER");
  checkb "program name" true (contains code "void resnet_block(void)");
  checkb "encrypt call" true (contains code "Encrypt_input(\"x\"");
  checkb "rescale emitted" true (contains code "Rescale_ciph");
  checkb "bootstrap emitted" true (contains code "Bootstrap_ciph");
  checkb "output emitted" true (contains code "Output_ciph");
  checkb "liveness frees" true (contains code "Free_ciph");
  (* one ciphertext variable per ct node *)
  let ct_nodes =
    List.length
      (List.filter (fun n -> Op.produces_ct n.Dfg.kind) (Dfg.live_nodes managed))
  in
  checki "one variable per ciphertext node" ct_nodes (Emit.declared_variables code)

let emit_rejects_illegal () =
  let g = fig1_block () in
  checkb "unmanaged graph rejected" true
    (match Emit.to_string Ckks.Params.fig1 g with
    | _ -> false
    | exception Invalid_argument _ -> true)

let emit_rolled_loops_annotated () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let managed, _ = Resbm.Driver.compile prm lowered.Nn.Lowering.dfg in
  let code = Emit.to_string prm managed in
  checkb "loop annotation" true (contains code "rolled loop: 4 iterations")

let emit_compiles_under_gcc () =
  let g = fig3_poly () in
  let managed, _ = Resbm.Driver.compile prm g in
  let path = Filename.temp_file "resbm" ".c" in
  Emit.write_file prm ~path managed;
  let rc = Sys.command (Printf.sprintf "gcc -fsyntax-only -Wall -Werror %s 2>/dev/null" path) in
  Sys.remove path;
  if rc = 127 then () (* no gcc in this environment: skip *)
  else checki "gcc -fsyntax-only accepts the artefact" 0 rc

let suite =
  [
    case "lang: ct/pt dispatch" lang_dispatch;
    case "lang: literal folding" lang_literal_folding;
    case "lang: hash consing" lang_hash_consing;
    case "lang: commutative sharing" lang_commutative_sharing;
    case "lang: rotate 0 elided" lang_rotate_zero_is_identity;
    case "lang: plaintext-only forms rejected" lang_pt_pt_rejected;
    case "lang: end to end quadratic" lang_end_to_end;
    lang_dot_matches_manual;
    case "lang: odd polynomial basis" lang_poly_odd;
    case "noise: grows with depth" noise_grows_with_depth;
    case "noise: bootstrap precision floor" noise_bootstrap_floor;
    noise_prediction_holds_end_to_end;
    case "noise: magnitude tracking" noise_magnitude_tracking;
    case "emit: structure" emit_structure;
    case "emit: rejects illegal graphs" emit_rejects_illegal;
    case "emit: rolled loop annotations" emit_rolled_loops_annotated;
    case "emit: gcc syntax check" emit_compiles_under_gcc;
  ]

(* --- Liveness --------------------------------------------------------------- *)

let liveness_chain () =
  (* a pure chain keeps at most two ciphertexts alive *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let a = Dfg.rotate g x 1 in
  let b = Dfg.rotate g a 1 in
  let c = Dfg.rotate g b 1 in
  Dfg.set_outputs g [ c ];
  let r = Liveness.analyse prm g in
  checki "all allocated" 4 r.Liveness.total_ciphertexts;
  checki "peak of a chain" 2 r.Liveness.peak_live;
  checki "one output live" 1 r.Liveness.final_live

let liveness_fanout () =
  (* a value with many pending consumers stays live across them *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let rots = List.init 5 (fun i -> Dfg.rotate g x (i + 1)) in
  let sum =
    match rots with
    | first :: rest -> List.fold_left (fun acc r -> Dfg.add_cc g acc r) first rest
    | [] -> assert false
  in
  Dfg.set_outputs g [ sum ];
  let r = Liveness.analyse prm g in
  checkb "fanout raises the peak" true (r.Liveness.peak_live >= 5)

let liveness_bytes_grow_with_level () =
  let high = Liveness.ciphertext_bytes prm ~level:16
  and low = Liveness.ciphertext_bytes prm ~level:2 in
  checkb "higher level, bigger ciphertext" true (high > low);
  (* 2 * (level+1) * N * 8 bytes *)
  check_float ~eps:1.0 "formula" (2.0 *. 17.0 *. 65536.0 *. 8.0) high

let liveness_resnet_scale () =
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let managed, _ = Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg in
  let r = Liveness.analyse prm managed in
  checkb "bounded working set" true (r.Liveness.peak_live < 64);
  checkb "hundreds of values total" true (r.Liveness.total_ciphertexts > 500)

let noise_sharp_prediction_with_oracle () =
  (* with the lowering's constant magnitudes, the prediction lands within
     a few bits of the measured end-to-end error *)
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let managed, _ = Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg in
  let dim = 16 in
  let const_magnitude = Nn.Lowering.(const_magnitude (resolver lowered ~dim)) in
  let report = Noise_check.analyse ~const_magnitude ~magnitude_cap:0.5 prm managed in
  let image = (Nn.Dataset.images ~dim ~count:1 ()).(0) in
  let ev = Ckks.Evaluator.create prm in
  let enc, _ = Nn.Inference.run_encrypted ev lowered ~managed image in
  let plain = Nn.Inference.run_plain lowered ~dim image in
  let measured =
    Array.fold_left Float.max 0.0 (Array.mapi (fun i v -> Float.abs (v -. plain.(i))) enc)
  in
  checkb "measured within the predicted envelope" true
    (Noise_check.predicts report ~measured);
  checkb "prediction is not wildly loose" true
    (report.Noise_check.output_noise < measured *. 1e5)

let liveness_suite =
  [
    case "liveness: chain" liveness_chain;
    case "liveness: fanout" liveness_fanout;
    case "liveness: ciphertext size formula" liveness_bytes_grow_with_level;
    case "liveness: resnet working set" liveness_resnet_scale;
    case "noise: sharp prediction with magnitude oracle" noise_sharp_prediction_with_oracle;
  ]

let suite = suite @ liveness_suite
