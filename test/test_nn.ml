open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* --- Polynomial approximation -------------------------------------------- *)

let poly_sign_accuracy () =
  (* the composed minimax sign is accurate away from zero *)
  List.iter
    (fun x ->
      let s = Nn.Poly_approx.sign ~stages:3 x in
      let expect = if x > 0.0 then 1.0 else -1.0 in
      checkb (Printf.sprintf "sign(%.2f)" x) true (Float.abs (s -. expect) < 0.05))
    [ -0.9; -0.5; -0.2; 0.2; 0.5; 0.9 ]

let poly_relu_accuracy () =
  List.iter
    (fun x ->
      let r = Nn.Poly_approx.relu ~stages:3 x in
      let expect = Float.max x 0.0 in
      checkb (Printf.sprintf "relu(%.2f)" x) true (Float.abs (r -. expect) < 0.05))
    [ -0.8; -0.3; 0.3; 0.8 ]

let poly_odd_symmetry =
  qcheck ~count:100 "sign is odd" QCheck2.Gen.(float_range 0.01 1.0) (fun x ->
      let s = Nn.Poly_approx.sign ~stages:2 x in
      Float.abs (s +. Nn.Poly_approx.sign ~stages:2 (-.x)) < 1e-9)

let poly_depth_formula () =
  checki "2 stages" 10 (Nn.Poly_approx.depth ~stages:2);
  checki "3 stages" 14 (Nn.Poly_approx.depth ~stages:3)

let poly_f7_fixed_point () =
  (* f(1) = 1 for the degree-7 minimax stage *)
  let f = Nn.Poly_approx.f7 in
  check_float ~eps:1e-9 "f(1) = 1" 1.0 (f.(0) +. f.(1) +. f.(2) +. f.(3))

(* --- Models ----------------------------------------------------------------- *)

let model_depths () =
  checkb "resnet20 deep" true (Nn.Model.depth Nn.Model.resnet20 > 150);
  checkb "resnet44 deeper" true
    (Nn.Model.depth Nn.Model.resnet44 > Nn.Model.depth Nn.Model.resnet20);
  checkb "resnet110 deepest" true
    (Nn.Model.depth Nn.Model.resnet110 > Nn.Model.depth Nn.Model.resnet44);
  checki "tiny" 12 (Nn.Model.depth Nn.Model.tiny)

let model_lookup () =
  checkb "resnet20" true (Nn.Model.by_name "resnet20" <> None);
  checkb "VGG16 case-insensitive" true (Nn.Model.by_name "vgg16" <> None);
  checkb "unknown" true (Nn.Model.by_name "transformer" = None);
  checki "seven paper models" 7 (List.length Nn.Model.paper_models)

let resnet_family_structure () =
  (* ResNet-(6n+2): 6n+1 convolutions + stem... count conv layers *)
  let count_convs model =
    let rec go acc = function
      | [] -> acc
      | Nn.Model.Conv _ :: rest -> go (acc + 1) rest
      | Nn.Model.Residual { body; project } :: rest ->
          go (go (go acc body) project) rest
      | Nn.Model.Concat { branches; _ } :: rest ->
          go (List.fold_left go acc branches) rest
      | _ :: rest -> go acc rest
    in
    go 0 model.Nn.Model.layers
  in
  checki "resnet20 convs" 21 (count_convs Nn.Model.resnet20);
  (* 1 stem + 18 block convs + 2 projections *)
  checki "resnet44 convs" 45 (count_convs Nn.Model.resnet44)

(* --- Lowering ------------------------------------------------------------------ *)

let lowering_valid_graphs () =
  List.iter
    (fun model ->
      let lowered = Nn.Lowering.lower model in
      checkb (model.Nn.Model.name ^ " valid") true
        (Dfg.validate lowered.Nn.Lowering.dfg = Ok ());
      checki (model.Nn.Model.name ^ " one output") 1
        (List.length (Dfg.outputs lowered.Nn.Lowering.dfg)))
    (Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ])

(* The memoised constant magnitude is bit for bit the [Float.max] fold
   over the payload, for every constant of the nine models at 16 and 128
   slots, on the first ask of a name and on the repeats. *)
let const_magnitude_matches_fold () =
  let fold a = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 a in
  List.iter
    (fun model ->
      let lowered = Nn.Lowering.lower model in
      let g = lowered.Nn.Lowering.dfg in
      List.iter
        (fun dim ->
          let consts = Nn.Lowering.resolver lowered ~dim in
          let magnitude = Nn.Lowering.const_magnitude consts in
          let bad = ref [] and seen = ref 0 in
          for id = 0 to Dfg.node_count g - 1 do
            match (Dfg.node g id).Dfg.kind with
            | Op.Const { name } ->
                incr seen;
                if
                  not
                    (Int64.equal
                       (Int64.bits_of_float (fold (consts name)))
                       (Int64.bits_of_float (magnitude name)))
                then bad := name :: !bad
            | _ -> ()
          done;
          let what = Printf.sprintf "%s at %d slots" model.Nn.Model.name dim in
          checkb (what ^ " has constants") true (!seen > 0);
          check Alcotest.(list string) (what ^ ": names off the fold") [] !bad)
        [ 16; 128 ])
    (Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ])

let lowering_depth_matches_spec () =
  List.iter
    (fun model ->
      let lowered = Nn.Lowering.lower model in
      checki (model.Nn.Model.name ^ " depth") (Nn.Model.depth model)
        (Depth.max_depth lowered.Nn.Lowering.dfg))
    [ Nn.Model.tiny; Nn.Model.lenet5; Nn.Model.resnet20; Nn.Model.squeezenet ]

let lowering_repack_has_freq_one () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let g = lowered.Nn.Lowering.dfg in
  (* the program output is a frequency-1 repack *)
  match Dfg.outputs g with
  | [ out ] -> checki "freq 1 at the boundary" 1 (Dfg.node g out).Dfg.freq
  | _ -> Alcotest.fail "one output"

let resolver_deterministic () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let r1 = Nn.Lowering.resolver lowered ~dim:8 "conv1_w0" in
  let r2 = Nn.Lowering.resolver lowered ~dim:8 "conv1_w0" in
  checkb "same payload" true (r1 = r2);
  let other = Nn.Lowering.resolver lowered ~dim:8 "conv1_w1" in
  checkb "different names differ" true (r1 <> other)

let resolver_special_names () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let r = Nn.Lowering.resolver lowered ~dim:4 in
  check_float "f7c0" Nn.Poly_approx.f7.(0) (r "f7c0").(0);
  check_float "apr_half" 0.5 (r "apr_half").(0);
  check_float "apr_bias" 0.5 (r "apr_bias").(0)

let resolver_weight_amplitude () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let w = Nn.Lowering.resolver lowered ~dim:64 "conv1_w1" in
  (* 3 taps: amplitude <= 0.45/3 *)
  Array.iter (fun v -> checkb "bounded" true (Float.abs v <= 0.45 /. 3.0 +. 1e-9)) w

(* --- Dataset ---------------------------------------------------------------------- *)

let dataset_deterministic () =
  let a = Nn.Dataset.images ~seed:5L ~dim:8 ~count:3 ()
  and b = Nn.Dataset.images ~seed:5L ~dim:8 ~count:3 () in
  checkb "reproducible" true (a = b);
  let c = Nn.Dataset.images ~seed:6L ~dim:8 ~count:3 () in
  checkb "seed-sensitive" true (a <> c)

let dataset_range () =
  let imgs = Nn.Dataset.images ~dim:32 ~count:10 () in
  Array.iter
    (fun img -> Array.iter (fun v -> checkb "in [-1,1]" true (v >= -1.0 && v <= 1.0)) img)
    imgs

let dataset_argmax () =
  checki "argmax" 2 (Nn.Dataset.argmax ~classes:4 [| 0.1; 0.3; 0.9; 0.2; 5.0 |]);
  checki "classes bound" 1 (Nn.Dataset.argmax ~classes:2 [| 0.1; 0.3; 0.9 |])

let dataset_labels_in_range () =
  let data =
    Nn.Dataset.labelled ~dim:8 ~count:10 ~classes:4
      ~infer:(fun img -> Array.sub img 0 4)
      ()
  in
  Array.iter
    (fun s -> checkb "label in range" true (s.Nn.Dataset.label >= 0 && s.Nn.Dataset.label < 4))
    data

(* --- Plain eval vs lowering ---------------------------------------------------------- *)

let plain_eval_conv_semantics () =
  (* a one-tap convolution is an element-wise affine map *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cp g x (Dfg.const g "w") in
  let s = Dfg.add_cp g m (Dfg.const g "b") in
  Dfg.set_outputs g [ s ];
  let dim = 4 in
  let input = [| 1.0; 2.0; 3.0; 4.0 |] in
  let consts = function
    | "w" -> Array.make dim 2.0
    | _ -> Array.make dim 0.5
  in
  match Nn.Plain_eval.run g ~input:(fun _ -> input) ~consts with
  | [ out ] ->
      Array.iteri (fun i v -> check_float "affine" ((input.(i) *. 2.0) +. 0.5) v) out
  | _ -> Alcotest.fail "one output"

let plain_eval_apr_close_to_relu () =
  let lowered = Nn.Lowering.lower { Nn.Model.name = "apr"; layers = [ Nn.Model.Apr { stages = 2 } ]; classes = 1 } in
  let dim = 8 in
  let input = [| -0.8; -0.4; -0.1; 0.0; 0.1; 0.4; 0.8; 0.5 |] in
  let consts = Nn.Lowering.resolver lowered ~dim in
  match Nn.Plain_eval.run lowered.Nn.Lowering.dfg ~input:(fun _ -> input) ~consts with
  | [ out ] ->
      Array.iteri
        (fun i v ->
          let expect = Nn.Poly_approx.relu ~stages:2 input.(i) in
          checkb "lowered APR matches reference" true (Float.abs (v -. expect) < 1e-9))
        out
  | _ -> Alcotest.fail "one output"

(* --- Inference fidelity (Table 6 machinery) ------------------------------------------- *)

let fidelity_tiny_model () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let managed, _ = Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg in
  let fid = Nn.Inference.fidelity ~samples:6 ~dim:16 prm lowered ~managed in
  checkb "plain and encrypted agree" true (fid.Nn.Inference.agreement >= 0.99);
  checkb "tiny error" true (fid.Nn.Inference.max_abs_err < 1e-4);
  checkb "accuracy loss negligible" true (Float.abs fid.Nn.Inference.accuracy_loss < 0.01);
  checkb "latency recorded" true (fid.Nn.Inference.mean_latency_ms > 0.0)

let fidelity_with_bootstrapping () =
  (* force bootstrapping with low fresh levels: fidelity must survive *)
  let p = { prm with input_level = 8 } in
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let managed, report = Resbm.Variants.(compile resbm) p lowered.Nn.Lowering.dfg in
  checkb "bootstraps present" true (report.Resbm.Report.stats.Stats.bootstrap_count > 0);
  let fid = Nn.Inference.fidelity ~samples:4 ~dim:16 p lowered ~managed in
  checkb "agreement across bootstraps" true (fid.Nn.Inference.agreement >= 0.99)

let suite =
  [
    case "poly: sign accuracy" poly_sign_accuracy;
    case "poly: relu accuracy" poly_relu_accuracy;
    poly_odd_symmetry;
    case "poly: depth formula" poly_depth_formula;
    case "poly: f7 fixed point" poly_f7_fixed_point;
    case "models: depths" model_depths;
    case "models: lookup" model_lookup;
    case "models: resnet structure" resnet_family_structure;
    case "lowering: all models valid" lowering_valid_graphs;
    case "lowering: depth matches spec" lowering_depth_matches_spec;
    case "lowering: frequency-1 boundary" lowering_repack_has_freq_one;
    case "resolver: deterministic" resolver_deterministic;
    case "resolver: special names" resolver_special_names;
    case "resolver: weight amplitude" resolver_weight_amplitude;
    case "dataset: deterministic" dataset_deterministic;
    case "dataset: value range" dataset_range;
    case "dataset: argmax" dataset_argmax;
    case "dataset: labels in range" dataset_labels_in_range;
    case "plain eval: affine conv" plain_eval_conv_semantics;
    case "plain eval: APR matches reference" plain_eval_apr_close_to_relu;
    case "fidelity: tiny model (Table 6 machinery)" fidelity_tiny_model;
    case "fidelity: across bootstraps" fidelity_with_bootstrapping;
    case "lowering: const_magnitude is the fold, every constant of nine models"
      const_magnitude_matches_fold;
  ]
