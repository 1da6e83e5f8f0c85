(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on the simulated substrate.

     dune exec bench/main.exe            -- all experiments
     dune exec bench/main.exe -- table4 fig6
     dune exec bench/main.exe -- micro   -- Bechamel micro-benchmarks only
     dune exec bench/main.exe -- json \
         --models alexnet,squeezenet --managers resbm,fhelipe --out B.json

   Compile-time rows are real wall-clock measurements; inference rows are
   simulated CPU milliseconds from the Table 2 latency oracle.  The
   paper's published values are printed alongside for shape comparison
   (see EXPERIMENTS.md).  `--help` lists the flags. *)

open Fhe_ir

let prm = Ckks.Params.default

(* Knobs set by the command line before any experiment runs. *)
let out_path = ref "BENCH_resbm.json"
let models_filter : Nn.Model.t list ref = ref []
let managers_filter : Resbm.Variants.manager list ref = ref []

(* The selected entries of [all], in [all]'s order. *)
let selected all = function
  | [] -> all
  | picked -> List.filter (fun x -> List.memq x picked) all

let models () = selected Nn.Model.paper_models !models_filter
let managers () = selected Resbm.Variants.all !managers_filter

(* The commit the numbers were measured at, so a bench file is traceable
   after the working tree moves on.  Informational only — Bench_diff never
   compares it. *)
let git_rev () =
  match Sys.getenv_opt "RESBM_GIT_REV" with
  | Some r when String.trim r <> "" -> String.trim r
  | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if line = "" then "unknown" else line
      with _ -> "unknown")

let line = String.make 78 '-'

let section name description =
  Format.printf "@.%s@.== %s@.   %s@.%s@." line name description line

(* Lowered models and compiled variants are shared across experiments. *)
let lowered_cache : (string, Nn.Lowering.t) Hashtbl.t = Hashtbl.create 8

let lowered model =
  match Hashtbl.find_opt lowered_cache model.Nn.Model.name with
  | Some l -> l
  | None ->
      let l = Nn.Lowering.lower model in
      Hashtbl.add lowered_cache model.Nn.Model.name l;
      l

(* The real content-addressed plan cache, not an ad-hoc table: its key
   covers the graph, the FULL parameter value (experiments vary more than
   l_max — fig7 also changes input_level) and the manager identity, so a
   repeated (model, manager, params) compile anywhere in the suite is a
   warm hit returning a bit-identical plan.  Also the subject of the
   warm-compile bench axis below. *)
let plan_cache = Resbm.Plan_cache.create ~capacity:256 ()

let compile ?(params = prm) mgr model =
  Resbm.Variants.compile ~cache:plan_cache mgr params (lowered model).Nn.Lowering.dfg

(* --- Table 1: operation semantics ----------------------------------------- *)

let table1 () =
  section "Table 1" "scales and levels of FHE operation results (checked live)";
  let ev = Ckks.Evaluator.create prm in
  let ct = Ckks.Evaluator.encrypt ev ~level:8 [| 0.5 |] in
  let pt = Ckks.Evaluator.encode ev ~scale_bits:ct.Ckks.Ciphertext.scale_bits [| 0.25 |] in
  let ptw = Ckks.Evaluator.encode ev [| 0.25 |] in
  let row name (r : Ckks.Ciphertext.t) expect_scale expect_level =
    Format.printf "  %-22s scale 2^%-3d level %-2d  (expected 2^%d, L%d)  %s@." name
      r.Ckks.Ciphertext.scale_bits r.Ckks.Ciphertext.level expect_scale expect_level
      (if
         r.Ckks.Ciphertext.scale_bits = expect_scale
         && r.Ckks.Ciphertext.level = expect_level
       then "ok"
       else "MISMATCH")
  in
  let s = ct.Ckks.Ciphertext.scale_bits and l = ct.Ckks.Ciphertext.level in
  row "AddCP ct, pt" (Ckks.Evaluator.add_cp ev ct pt) s l;
  row "AddCC ct, ct" (Ckks.Evaluator.add_cc ev ct ct) s l;
  row "MulCP ct, pt" (Ckks.Evaluator.mul_cp ev ct ptw) (s + prm.Ckks.Params.waterline_bits) l;
  let m = Ckks.Evaluator.mul_cc ev ct ct in
  row "MulCC ct, ct" m (2 * s) l;
  row "Rotate ct, 3" (Ckks.Evaluator.rotate ev ct 3) s l;
  let r = Ckks.Evaluator.rescale ev (Ckks.Evaluator.relin ev m) in
  row "Rescale ct" r ((2 * s) - prm.Ckks.Params.scale_bits) (l - 1);
  row "Modswitch ct" (Ckks.Evaluator.modswitch ev ct) s (l - 1);
  row "Bootstrap ct, 12"
    (Ckks.Evaluator.bootstrap ev ct ~target_level:12)
    prm.Ckks.Params.scale_bits 12

(* --- Table 2: operation latencies ------------------------------------------ *)

let table2 () =
  section "Table 2" "RNS-CKKS operation latencies (ms) from the cost oracle";
  Format.printf "  %-16s" "Operation";
  List.iter
    (fun l -> Format.printf "%9s" (Printf.sprintf "l=%d" l))
    Ckks.Cost_model.table_levels;
  Format.printf "@.";
  List.iter
    (fun op ->
      Format.printf "  %-16s" (Ckks.Cost_model.op_name op);
      List.iter
        (fun l -> Format.printf "%9.3f" (Ckks.Cost_model.cost op ~level:l))
        Ckks.Cost_model.table_levels;
      Format.printf "@.")
    Ckks.Cost_model.all_ops

(* --- Table 3: compile times -------------------------------------------------- *)

let table3 () =
  section "Table 3" "compile times (s); paper columns quoted for comparison";
  let dacapo = function
    | "ResNet20" -> Some 15.8
    | "ResNet44" -> Some 79.4
    | "AlexNet" -> Some 1042.3
    | "VGG16" -> Some 230.1
    | "SqueezeNet" -> Some 89.1
    | "MobileNet" -> Some 222.8
    | _ -> None
  in
  let paper_resbm = function
    | "ResNet20" -> 0.128
    | "ResNet44" -> 0.290
    | "ResNet110" -> 0.773
    | "AlexNet" -> 0.050
    | "VGG16" -> 0.094
    | "SqueezeNet" -> 0.147
    | "MobileNet" -> 0.185
    | _ -> nan
  in
  Format.printf "  %-11s %11s %11s %13s %14s %9s@." "Model" "ReSBM" "Fhelipe"
    "ReSBM(paper)" "DaCapo(paper)" "speedup";
  List.iter
    (fun model ->
      let g = (lowered model).Nn.Lowering.dfg in
      let time mgr =
        Obs.Stat.median
          (List.init 3 (fun _ ->
               let _, r = Resbm.Variants.compile mgr prm g in
               r.Resbm.Report.compile_ms /. 1000.0))
      in
      let t_resbm = time Resbm.Variants.resbm and t_fhelipe = time Resbm.Variants.fhelipe in
      Format.printf "  %-11s %10.3fs %10.3fs %12.3fs %s %s@." model.Nn.Model.name t_resbm
        t_fhelipe
        (paper_resbm model.Nn.Model.name)
        (match dacapo model.Nn.Model.name with
        | Some d -> Printf.sprintf "%13.1fs" d
        | None -> "            -")
        (match dacapo model.Nn.Model.name with
        | Some d -> Printf.sprintf "%7.0fx" (d /. t_resbm)
        | None -> "       -"))
    (models ())

(* --- Table 4: executed rescaling operations ----------------------------------- *)

let table4 () =
  section "Table 4" "executed rescaling operations at l_max = 16";
  let paper = function
    | "ResNet20" -> (2627, 14495)
    | "ResNet44" -> (6063, 33767)
    | "ResNet110" -> (15512, 86765)
    | "AlexNet" -> (610, 28775)
    | "VGG16" -> (1026, 70917)
    | "SqueezeNet" -> (1458, 14868)
    | "MobileNet" -> (2035, 16337)
    | _ -> (0, 0)
  in
  Format.printf "  %-11s %9s %9s %7s | %9s %9s %7s@." "Model" "ReSBM" "Fhelipe" "ratio"
    "paper-R" "paper-F" "ratio";
  List.iter
    (fun model ->
      let _, r = compile Resbm.Variants.resbm model in
      let _, f = compile Resbm.Variants.fhelipe model in
      let nr = r.Resbm.Report.stats.Stats.executed_rescales
      and nf = f.Resbm.Report.stats.Stats.executed_rescales in
      let pr, pf = paper model.Nn.Model.name in
      Format.printf "  %-11s %9d %9d %6.1fx | %9d %9d %6.1fx@." model.Nn.Model.name nr nf
        (float_of_int nf /. float_of_int (max nr 1))
        pr pf
        (float_of_int pf /. float_of_int pr))
    (models ())

(* --- Table 5: bootstrapping levels ----------------------------------------------- *)

let table5 () =
  section "Table 5" "bootstrap counts and level histograms at l_max = 16";
  let paper_counts = function
    | "ResNet20" -> 20
    | "ResNet44" -> 44
    | "ResNet110" -> 110
    | "AlexNet" -> 9
    | "VGG16" -> 17
    | "SqueezeNet" -> 19
    | "MobileNet" -> 30
    | _ -> 0
  in
  Format.printf "  %-11s %5s %5s %7s  %s@." "Model" "ReSBM" "Fhel." "paper" "ReSBM levels";
  List.iter
    (fun model ->
      let _, r = compile Resbm.Variants.resbm model in
      let _, f = compile Resbm.Variants.fhelipe model in
      Format.printf "  %-11s %5d %5d %7d  %s@." model.Nn.Model.name
        r.Resbm.Report.stats.Stats.bootstrap_count
        f.Resbm.Report.stats.Stats.bootstrap_count
        (paper_counts model.Nn.Model.name)
        (String.concat " "
           (List.map
              (fun (l, c) -> Printf.sprintf "L%d:%d" l c)
              r.Resbm.Report.stats.Stats.bootstrap_levels)))
    (models ());
  Format.printf "  (Fhelipe bootstraps exclusively at l_max = 16, as in the paper)@."

(* --- Table 6: inference accuracy ---------------------------------------------------- *)

let table6 () =
  section "Table 6" "unencrypted vs simulated encrypted accuracy (synthetic data)";
  Format.printf "  %-11s %12s %10s %8s %10s %11s@." "Model" "Unencrypted" "Encrypted"
    "Loss" "Agreement" "max |err|";
  List.iter
    (fun model ->
      let l = lowered model in
      let managed, _ = compile Resbm.Variants.resbm model in
      let fid = Nn.Inference.fidelity ~samples:20 ~dim:64 ~seed:0xF1DE17L prm l ~managed in
      Format.printf "  %-11s %11.1f%% %9.1f%% %+7.1f%% %9.1f%% %11.2e@."
        model.Nn.Model.name
        (100.0 *. fid.Nn.Inference.unencrypted_acc)
        (100.0 *. fid.Nn.Inference.encrypted_acc)
        (100.0 *. fid.Nn.Inference.accuracy_loss)
        (100.0 *. fid.Nn.Inference.agreement)
        fid.Nn.Inference.max_abs_err)
    (models ());
  Format.printf "  (paper: losses between -0.2%% and 1.7%%, average 0.3%%)@."

(* --- Figure 1: the motivating example ------------------------------------------------ *)

let fig1_block () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let conv name v =
    let tap k w =
      let src = if k = 0 then v else Dfg.rotate g v k in
      Dfg.mul_cp g src (Dfg.const g (Printf.sprintf "%s_w%d" name w))
    in
    Dfg.add_cp g
      (Dfg.add_cc g (Dfg.add_cc g (tap 0 0) (tap (-1) 1)) (tap 1 2))
      (Dfg.const g (name ^ "_b"))
  in
  let u = conv "conv1" x in
  let u2 = Dfg.mul_cc g u u in
  let u3 = Dfg.mul_cc g u2 u in
  let relu =
    Dfg.add_cc g (Dfg.mul_cp g u3 (Dfg.const g "c3")) (Dfg.mul_cp g u (Dfg.const g "c1"))
  in
  let out = Dfg.mul_cc g (conv "conv2" relu) x in
  Dfg.set_outputs g [ out ];
  g

let fig1 () =
  section "Figure 1" "the simplified ResNet block under q = q_w = 2^40, l_max = 3";
  let p = Ckks.Params.fig1 in
  let g = fig1_block () in
  Format.printf "  unmanaged program: %s@."
    (match Scale_check.run p g with
    | Ok _ -> "legal (unexpected!)"
    | Error vs -> Printf.sprintf "rejected with %d violations (Figure 1a)" (List.length vs));
  Format.printf "  %-12s %12s %5s %-12s %9s@." "manager" "latency(ms)" "bts" "levels"
    "rescales";
  List.iter
    (fun mgr ->
      let _, r = Resbm.Variants.compile mgr p g in
      Format.printf "  %-12s %12.1f %5d %-12s %9d@." mgr.Resbm.Variants.name
        r.Resbm.Report.latency_ms r.Resbm.Report.stats.Stats.bootstrap_count
        (String.concat ","
           (List.map
              (fun (l, c) -> Printf.sprintf "L%d:%d" l c)
              r.Resbm.Report.stats.Stats.bootstrap_levels))
        r.Resbm.Report.stats.Stats.executed_rescales)
    Resbm.Variants.all;
  Format.printf
    "  (paper: ReSBM bootstraps at L3 and L1; Fhelipe/DaCapo at l_max = 3 twice)@."

(* --- Figure 3: region partition ------------------------------------------------------- *)

let fig3 () =
  section "Figure 3" "region partitions for a3*x^3 + a1*x";
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let x2 = Dfg.mul_cc g x x in
  let x3 = Dfg.mul_cc g x2 x in
  let a3x3 = Dfg.mul_cp g x3 (Dfg.const g "a3") in
  let a1x = Dfg.mul_cp g x (Dfg.const g "a1") in
  Dfg.set_outputs g [ Dfg.add_cc g a3x3 a1x ];
  let r = Resbm.Region.build g in
  Format.printf "  %a@." Resbm.Region.pp r;
  Format.printf "  a1*x placed in region %d (Figure 3b: multiply at the lower level)@."
    r.Resbm.Region.region_of.(a1x)

(* --- Figure 4: intra-region min-cut --------------------------------------------------- *)

let fig4 () =
  section "Figure 4" "SMO placement for the first convolution region of Figure 1";
  let g = fig1_block () in
  let r = Resbm.Region.build g in
  let cache = Resbm.Region_eval.create_cache prm in
  let eval smo_mode =
    (Resbm.Region_eval.eval cache r ~smo_mode ~bts_mode:Resbm.Region_eval.Bts_min_cut
       ~region:1 ~entry_level:1 ~rescales:1 ~bts:None)
      .Resbm.Region_eval.latency_ms
  in
  let mincut = eval Resbm.Region_eval.Smo_min_cut
  and eva = eval Resbm.Region_eval.Smo_eva
  and pars = eval Resbm.Region_eval.Smo_pars in
  Format.printf "  min-cut (ReSBM):      %8.3f ms@." mincut;
  Format.printf "  waterline (Fhelipe):  %8.3f ms@." eva;
  Format.printf "  lazy (DaCapo/PARS):   %8.3f ms@." pars;
  Format.printf "  (paper's Region 2: 131.832 vs 142.616 vs 143.860 ms)@.";
  let cut = Resbm.Smoplc.run r ~region:1 ~level:1 in
  Format.printf "  chosen cut: %a@." Resbm.Cut.pp cut

(* --- Figure 5: sub-optimality ----------------------------------------------------------- *)

let fig5 () =
  section "Figure 5" "compiler pre/post-optimisation around management";
  let build () =
    let g = Dfg.create () in
    let x = Dfg.input g ~level:0 "x" in
    let x2 = Dfg.mul_cc g x x in
    let x3 = Dfg.mul_cc g x2 x in
    let y = Dfg.mul_cp g x3 (Dfg.const g "a3") in
    let a1x = Dfg.mul_cp g x (Dfg.const g "a1") in
    let a1x2 = Dfg.mul_cc g a1x a1x in
    let y2 = Dfg.mul_cc g y y in
    let y4 = Dfg.mul_cc g y2 y2 in
    Dfg.set_outputs g [ Dfg.mul_cp g (Dfg.add_cc g a1x2 y4) (Dfg.const g "a4") ];
    g
  in
  let p = { Ckks.Params.fig1 with input_level = 0 } in
  let naive = build () in
  let _, rn = Resbm.Driver.compile p naive in
  let opt = build () in
  let folds = Passes.Const_fold.run opt in
  let merged = Passes.Cse.run opt in
  ignore (Passes.Dce.run opt);
  let managed, _ = Resbm.Driver.compile p opt in
  ignore (Passes.Cse.run managed);
  ignore (Passes.Dce.run managed);
  Format.printf "  naive:     latency %8.1f ms, %d bootstraps@." rn.Resbm.Report.latency_ms
    rn.Resbm.Report.stats.Stats.bootstrap_count;
  Format.printf
    "  optimised: latency %8.1f ms after %d folds + %d CSE merges (pre-management)@."
    (Latency.total p managed) folds merged

(* --- Figure 6: encrypted inference efficiency --------------------------------------------- *)

let fig6 () =
  section "Figure 6" "inference latency by manager, normalised to ReSBM (l_max = 16)";
  Format.printf "  %-11s" "Model";
  List.iter (fun m -> Format.printf "%11s" m.Resbm.Variants.name) Resbm.Variants.all;
  Format.printf "%13s@." "vs Fhelipe";
  let improvements = ref [] in
  List.iter
    (fun model ->
      Format.printf "  %-11s" model.Nn.Model.name;
      let base =
        let _, r = compile Resbm.Variants.resbm model in
        r.Resbm.Report.latency_ms
      in
      List.iter
        (fun mgr ->
          let _, r = compile mgr model in
          Format.printf "%10.2fx" (r.Resbm.Report.latency_ms /. base))
        Resbm.Variants.all;
      let _, f = compile Resbm.Variants.fhelipe model in
      let gain = 100.0 *. (1.0 -. (base /. f.Resbm.Report.latency_ms)) in
      improvements := gain :: !improvements;
      Format.printf "%11.1f%%@." gain)
    (models ());
  let avg =
    List.fold_left ( +. ) 0.0 !improvements /. float_of_int (List.length !improvements)
  in
  Format.printf "  average improvement over Fhelipe: %.1f%% (paper: 12.1%%)@." avg

(* --- Figure 7: l_max sweep on ResNet-110 ---------------------------------------------------- *)

let fig7 () =
  section "Figure 7" "ResNet-110 latency and bootstrap count at varying l_max";
  Format.printf "  %5s %14s %14s %9s %8s %8s@." "l_max" "ReSBM(ms)" "Fhelipe(ms)" "gain"
    "bts-R" "bts-F";
  List.iter
    (fun l_max ->
      let p = Ckks.Params.at_l_max l_max in
      let _, r = compile ~params:p Resbm.Variants.resbm Nn.Model.resnet110 in
      let _, f = compile ~params:p Resbm.Variants.fhelipe Nn.Model.resnet110 in
      Format.printf "  %5d %14.0f %14.0f %8.1f%% %8d %8d@." l_max
        r.Resbm.Report.latency_ms f.Resbm.Report.latency_ms
        (100.0 *. (1.0 -. (r.Resbm.Report.latency_ms /. f.Resbm.Report.latency_ms)))
        r.Resbm.Report.stats.Stats.bootstrap_count
        f.Resbm.Report.stats.Stats.bootstrap_count)
    [ 16; 14; 12; 10 ];
  Format.printf "  (paper: 110/112/174/217 bootstraps; gains 8.8/5.0/26.0/36.6%%)@."

(* --- Ablations: the design choices DESIGN.md calls out ---------------------------------------- *)

let ablation () =
  section "Ablations"
    "disable individual ReSBM design choices and measure the damage";
  let compile_with ~sink ~price_transits model =
    let g = (lowered model).Nn.Lowering.dfg in
    let regioned = Resbm.Region.build ~sink g in
    let config = { Resbm.Btsmgr.resbm_config with price_transits } in
    let plan = Resbm.Btsmgr.plan ~config regioned prm in
    let outcome = Resbm.Plan.apply regioned prm plan in
    let managed = outcome.Resbm.Plan.dfg in
    let stats = Stats.collect managed in
    (Latency.total prm managed, stats.Stats.bootstrap_count, outcome.Resbm.Plan.repair_bootstraps)
  in
  Format.printf "  %-11s %-22s %14s %6s %8s %9s@." "Model" "configuration" "latency(ms)"
    "bts" "repairs" "overhead";
  List.iter
    (fun model ->
      let full, full_bts, full_rep = compile_with ~sink:true ~price_transits:true model in
      let rows =
        [
          ("full ReSBM", full, full_bts, full_rep);
          (let l, b, r = compile_with ~sink:false ~price_transits:true model in
           ("no region sinking", l, b, r));
          (let l, b, r = compile_with ~sink:true ~price_transits:false model in
           ("no transit pricing", l, b, r));
        ]
      in
      List.iter
        (fun (name, l, b, r) ->
          Format.printf "  %-11s %-22s %14.0f %6d %8d %+8.1f%%@." model.Nn.Model.name name
            l b r
            (100.0 *. ((l /. full) -. 1.0)))
        rows)
    [ Nn.Model.resnet20; Nn.Model.mobilenet ]

(* --- Memory: the working-set sizes behind the paper's 512 GB machine ------------------------- *)

let memory () =
  section "Memory" "ciphertext working sets of the managed programs (N = 2^16)";
  Format.printf "  %-11s %8s %10s %14s %12s@." "Model" "cts" "peak live" "peak MiB"
    "per-ct MiB";
  List.iter
    (fun model ->
      let managed, _ = compile Resbm.Variants.resbm model in
      let r = Liveness.analyse prm managed in
      Format.printf "  %-11s %8d %10d %14.1f %12.1f@." model.Nn.Model.name
        r.Liveness.total_ciphertexts r.Liveness.peak_live
        (r.Liveness.peak_bytes /. 1024.0 /. 1024.0)
        (Liveness.ciphertext_bytes prm ~level:prm.Ckks.Params.l_max /. 1024.0 /. 1024.0))
    (models ());
  Format.printf
    "  (one level-16 ciphertext is ~17 MiB; the paper's evaluation machine has 512 GB)@."

(* --- Bechamel micro-benchmarks ----------------------------------------------------------------- *)

let micro () =
  section "Micro-benchmarks" "wall-clock costs of the compiler and the serving kernels (Bechamel)";
  let open Bechamel in
  let g20 = (lowered Nn.Model.resnet20).Nn.Lowering.dfg in
  let galex = (lowered Nn.Model.alexnet).Nn.Lowering.dfg in
  let g110 = (lowered Nn.Model.resnet110).Nn.Lowering.dfg in
  let managed20, _ = Resbm.Driver.compile prm g20 in
  let regioned44 = Resbm.Region.build (lowered Nn.Model.resnet44).Nn.Lowering.dfg in
  (* 1000 Table 2 lookups sweeping every op over levels 0..19. *)
  let ops = Array.of_list Ckks.Cost_model.all_ops in
  let cost_1000 () =
    let acc = ref 0.0 in
    for k = 0 to 999 do
      acc := !acc +. Ckks.Cost_model.cost ops.(k mod 9) ~level:(k mod 20)
    done;
    !acc
  in
  (* Every distinct ResNet-20 region shape that SMOPLC can solve, cut at
     levels 1..16 on a fresh memo per run: one template (and flow
     topology) per shape, then sixteen capacity refills and solves, each
     keeping its certificate deferred as the planner's search does. *)
  let shapes20 =
    let r = Resbm.Region.build g20 in
    List.sort_uniq compare (Array.to_list r.Resbm.Region.shape_ids)
    |> List.filter_map (fun id ->
           let region = ref 0 in
           while r.Resbm.Region.shape_ids.(!region) <> id do
             incr region
           done;
           let shape = Resbm.Region.shape r !region in
           match Resbm.Smoplc.cut shape ~level:1 with
           | _ -> Some shape
           | exception Invalid_argument _ -> None)
  in
  let smoplc_solves () =
    let memo = Resbm.Smoplc.create_memo () in
    List.iter
      (fun shape ->
        for level = 1 to 16 do
          ignore (Resbm.Smoplc.solve ~memo shape ~level)
        done)
      shapes20
  in
  (* The same shapes' BTSPLC cuts over all their ciphertext members at
     targets 1..16 on a fresh memo per run: one template per shape, then
     sixteen refills and re-solves. *)
  let btsplc_solves () =
    let memo = Resbm.Btsplc.create_memo () in
    List.iter
      (fun (shape : Resbm.Region.shape) ->
        let subgraph =
          List.filter
            (fun s -> Op.produces_ct shape.Resbm.Region.slots.(s).Resbm.Region.kind)
            (List.init shape.Resbm.Region.members Fun.id)
        in
        for lbts = 1 to 16 do
          ignore (Resbm.Btsplc.solve ~memo shape ~lbts ~subgraph)
        done)
      shapes20
  in
  (* One seeded random network: 64 nodes, each with 6 arcs to random
     nodes, capacities 1..16 with one in eight infinite; built and cut
     from node 0 to node 63 per run. *)
  let random64 =
    let rng = Ckks.Prng.create 64L in
    List.init (64 * 6) (fun i ->
        let cap =
          if Ckks.Prng.int rng ~bound:8 = 0 then infinity
          else float_of_int (1 + Ckks.Prng.int rng ~bound:16)
        in
        (i / 6, Ckks.Prng.int rng ~bound:64, cap))
  in
  let dinic64 () =
    let net = Graphlib.Maxflow.create 64 in
    List.iter (fun (src, dst, cap) -> Graphlib.Maxflow.add_edge net ~src ~dst ~cap) random64;
    Graphlib.Maxflow.min_cut net ~source:0 ~sink:63
  in
  (* The serving kernels on one 128-slot vector, and one fault-free
     served ResNet-20 batch: 8 packed 16-slot images through
     [Recovery.run_program] on a program and noise analysis prepared as
     [Serving.Scheduler.run] prepares them, once per campaign. *)
  let slots = Array.init 128 (fun i -> Float.of_int ((i * 37) mod 101) /. 101.0 -. 0.5) in
  let ev = Ckks.Evaluator.create prm in
  let ct = Ckks.Evaluator.encrypt ev slots in
  let pt = Ckks.Evaluator.encode ev slots in
  let serve_batch =
    let prm = Ckks.Params.at_l_max 16 in
    let lowered = lowered Nn.Model.resnet20 in
    let managed, report = Resbm.Driver.compile prm lowered.Nn.Lowering.dfg in
    let dim = 16 in
    let cap = Serving.Batcher.capacity prm ~dim ~max_batch:8 in
    let images = Nn.Dataset.images ~seed:0x5E17EL ~dim ~count:cap () in
    let requests =
      List.init cap (fun rid ->
          { Serving.Batcher.rid; arrival_ms = 0.0; deadline_ms = 0.0; payload = images.(rid) })
    in
    let consts = Nn.Lowering.resolver lowered ~dim:(cap * dim) in
    let program =
      Interp.Program.make ~region_of:(Resbm.Report.region_of_node report) prm managed
    in
    let noise =
      Resilience.Recovery.expect
        (Noise_check.analyse ~const_magnitude:(Nn.Lowering.const_magnitude consts)
           ~scales:(Interp.Program.info program) ~order:(Interp.Program.order program) prm
           managed)
    in
    let env =
      {
        Interp.inputs =
          [ (lowered.Nn.Lowering.input_name, Serving.Batcher.pack ~dim ~slots:(cap * dim) requests) ];
        consts;
      }
    in
    fun () ->
      Resilience.Recovery.run_program ~noise program (Ckks.Evaluator.create ~seed:7L prm) env
  in
  let tests =
    [
      Test.make ~name:"topo-order resnet110 input"
        (Staged.stage (fun () -> ignore (Dfg.topo_order g110)));
      Test.make ~name:"topo-order resnet20 managed"
        (Staged.stage (fun () -> ignore (Dfg.topo_order managed20)));
      Test.make ~name:"cost-model 1000 calls" (Staged.stage (fun () -> ignore (cost_1000 ())));
      Test.make ~name:"region-partition resnet20"
        (Staged.stage (fun () -> ignore (Resbm.Region.build g20)));
      Test.make ~name:"resbm-compile resnet20"
        (Staged.stage (fun () -> ignore (Resbm.Driver.compile prm g20)));
      Test.make ~name:"resbm-compile alexnet"
        (Staged.stage (fun () -> ignore (Resbm.Driver.compile prm galex)));
      Test.make ~name:"btsmgr-plan resnet44"
        (Staged.stage (fun () -> ignore (Resbm.Btsmgr.plan regioned44 prm)));
      Test.make ~name:"smoplc-solve resnet20 shapes x 16 levels" (Staged.stage smoplc_solves);
      Test.make ~name:"btsplc-resolve resnet20 shapes x 16 targets"
        (Staged.stage btsplc_solves);
      Test.make ~name:"maxflow dinic random 64 nodes"
        (Staged.stage (fun () -> ignore (dinic64 ())));
      Test.make ~name:"compile resnet20 resbm_max"
        (Staged.stage (fun () ->
             ignore (Resbm.Variants.compile Resbm.Variants.resbm_max prm g20)));
      Test.make ~name:"fhelipe-compile resnet20"
        (Staged.stage (fun () ->
             ignore (Resbm.Variants.compile Resbm.Variants.fhelipe prm g20)));
      Test.make ~name:"scale-check resnet20"
        (Staged.stage (fun () -> ignore (Scale_check.infer prm g20)));
      Test.make ~name:"max-abs 128 slots"
        (Staged.stage (fun () -> ignore (Ckks.Ciphertext.max_abs ct)));
      Test.make ~name:"mul-cp 128 slots"
        (Staged.stage (fun () -> ignore (Ckks.Evaluator.mul_cp ev ct pt)));
      Test.make ~name:"serve-batch resnet20" (Staged.stage (fun () -> ignore (serve_batch ())));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
      let results = Benchmark.all cfg [ instance ] test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] when est < 1e5 ->
              Format.printf "  %-28s %12.3f us/run@." name (est /. 1e3)
          | Some [ est ] -> Format.printf "  %-28s %12.3f ms/run@." name (est /. 1e6)
          | _ -> Format.printf "  %-28s (no estimate)@." name)
        stats)
    tests

(* --- machine-readable trajectory: BENCH_resbm.json ------------------------------------------------ *)

(* Per-model per-manager cells that `resbm bench-diff` gates, so a plan or
   planner-work change is caught as data rather than read off Tables 4-5
   by hand.  Everything but [warm_speedup] is deterministic: the simulated
   latency, rescale and bootstrap counts, the static noise prediction, the
   planner's work counters and the renumbering-stable plan digest.  Host
   time per layer is perfbench's ledger, not this file. *)

(* The warm-cache ratio times a fixed 1 discarded warm-up + 3 trials of
   each compile and divides the medians. *)
let warmup = 1
let trials = 3

let median_ms compile_ms =
  for _ = 1 to warmup do
    ignore (compile_ms ())
  done;
  Obs.Stat.median (List.init trials (fun _ -> compile_ms ()))

let bench_json () =
  section "BENCH_resbm.json" "machine-readable per-model per-manager plan cells";
  (* Constant magnitudes at a 16-slot image size: the baseline's
     [predicted_precision_bits] were computed at this size. *)
  let const_magnitude l = Nn.Lowering.(const_magnitude (resolver l ~dim:16)) in
  let manager_entry model mgr =
    let managed, r = compile mgr model in
    let noise =
      Noise_check.analyse ~const_magnitude:(const_magnitude (lowered model)) prm managed
    in
    (* Cold compiles bypass the plan cache; warm ones hit the entry the
       [compile] call above stored.  Gated as warm_speedup >= 5 by
       `resbm bench-diff`. *)
    let g = (lowered model).Nn.Lowering.dfg in
    let compile_ms ?cache () =
      (snd (Resbm.Variants.compile ?cache mgr prm g)).Resbm.Report.compile_ms
    in
    let cold = median_ms (fun () -> compile_ms ()) in
    let warm = median_ms (fun () -> compile_ms ~cache:plan_cache ()) in
    Obs.Json.Obj
      [
        ("manager", Obs.Json.String mgr.Resbm.Variants.name);
        ("latency_ms", Obs.Json.Float r.Resbm.Report.latency_ms);
        ("bootstrap_count", Obs.Json.Int r.Resbm.Report.stats.Stats.bootstrap_count);
        ("executed_rescales", Obs.Json.Int r.Resbm.Report.stats.Stats.executed_rescales);
        ("nodes", Obs.Json.Int r.Resbm.Report.stats.Stats.nodes);
        ( "predicted_precision_bits",
          Obs.Json.Float noise.Noise_check.output_precision_bits );
        ("warm_speedup", Obs.Json.Float (cold /. warm));
        ( "counters",
          Obs.Json.Obj
            (List.map
               (fun (k, v) -> (k, Obs.Json.Int v))
               (Obs.Profile.counters r.Resbm.Report.profile)) );
        (* Renumbering-stable structural digest: bench-diff pairs it cell
           by cell, so a gated metric change arrives with the plan-level
           change that caused it (see Obs.Bench_diff.plan_drift). *)
        ("plan_digest", Resbm.Explain.digest prm ~managed r);
      ]
  in
  let json =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "resbm");
        ("schema_version", Obs.Json.Int Obs.Bench_diff.schema_version);
        ("git_rev", Obs.Json.String (git_rev ()));
        ("l_max", Obs.Json.Int prm.Ckks.Params.l_max);
        ( "models",
          Obs.Json.List
            (List.map
               (fun model ->
                 Obs.Json.Obj
                   [
                     ("model", Obs.Json.String model.Nn.Model.name);
                     ( "managers",
                       Obs.Json.List
                         (List.map (manager_entry model) (managers ())) );
                   ])
               (models ())) );
      ]
  in
  let path = !out_path in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "  wrote %s (%d models x %d managers)@." path
    (List.length (models ()))
    (List.length (managers ()))

(* --- serve: batching policy sweep ----------------------------------------------------------------- *)

(* Informational (not part of the gated [json] subset): sweep the batch
   cap under a fixed overloaded arrival trace and show how slot batching
   buys goodput — the SIMD amortisation argument (BTS, FAB) measured on
   the serving scheduler itself.  Deterministic in its pinned seed. *)
let serve_bench () =
  section "serve"
    "slot-batched serving under overload: goodput / SLO attainment vs batch cap";
  Format.printf
    "  tiny model, l_max 9, dim 16, Poisson 40 rps for 2000 simulated ms, chaos 0.05@.";
  Format.printf "  %-9s %9s %9s %12s %11s %10s %7s %6s@." "max-batch" "admitted"
    "completed" "goodput-rps" "attainment" "p99-ms" "shed%" "fill";
  List.iter
    (fun max_batch ->
      let cfg =
        {
          Serving.Scheduler.default with
          Serving.Scheduler.seed = 0xBA7C4L;
          model = "tiny";
          l_max = 9;
          dim = 16;
          arrival = Serving.Scheduler.Poisson 40.0;
          duration_ms = 2000.0;
          max_batch;
          chaos_rate = 0.05;
        }
      in
      let r = Serving.Scheduler.run ~cache:plan_cache cfg in
      let shed_pct =
        if r.Serving.Scheduler.arrivals = 0 then 0.0
        else
          100.0
          *. float_of_int r.Serving.Scheduler.shed
          /. float_of_int r.Serving.Scheduler.arrivals
      in
      Format.printf "  %-9d %9d %9d %12.2f %11.3f %10.1f %6.1f%% %6.2f@." max_batch
        r.Serving.Scheduler.admitted r.Serving.Scheduler.completed
        r.Serving.Scheduler.goodput_rps r.Serving.Scheduler.slo_attainment
        r.Serving.Scheduler.p99_service_ms shed_pct
        r.Serving.Scheduler.mean_batch_fill)
    [ 1; 2; 4; 8 ]

(* --- driver --------------------------------------------------------------------------------------- *)

let all_experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("fig1", fig1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("ablation", ablation);
    ("memory", memory);
    ("micro", micro);
    ("serve", serve_bench);
    ("json", bench_json);
  ]

(* A comma-separated name list, each resolved by [find] to one of
   [known]; any other name is rejected, since a typo'd --models would
   otherwise silently produce an empty (but valid-looking) report. *)
let names_conv kind ~name ~find known =
  let parse s =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun n -> n <> "")
    |> List.fold_left
         (fun acc n ->
           Result.bind acc (fun picked ->
               match find n with
               | Some x when List.memq x known -> Ok (picked @ [ x ])
               | _ ->
                   Error
                     (Printf.sprintf "unknown %s %s (known: %s)" kind n
                        (String.concat " " (List.map name known)))))
         (Ok [])
  in
  Cmdliner.Arg.conv'
    (parse, fun ppf xs -> Format.pp_print_string ppf (String.concat "," (List.map name xs)))

let () =
  let open Cmdliner in
  let experiments =
    Arg.(
      value
      & pos_all (enum (List.map (fun (name, _) -> (name, name)) all_experiments)) []
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (default: all of them).")
  in
  let models =
    let name m = m.Nn.Model.name in
    Arg.(
      value
      & opt (names_conv "model" ~name ~find:Nn.Model.by_name Nn.Model.paper_models) []
      & info [ "models" ] ~docv:"A,B"
          ~doc:"Restrict model-driven experiments to these models.")
  in
  let managers =
    let name m = m.Resbm.Variants.name in
    Arg.(
      value
      & opt (names_conv "manager" ~name ~find:Resbm.Variants.by_name Resbm.Variants.all) []
      & info [ "managers" ] ~docv:"A,B"
          ~doc:"Restrict the json experiment to these managers.")
  in
  let out =
    Arg.(
      value & opt string !out_path
      & info [ "out" ] ~docv:"FILE" ~doc:"Where the json experiment writes its report.")
  in
  let run requested models managers out =
    models_filter := models;
    managers_filter := managers;
    out_path := out;
    let requested = if requested = [] then List.map fst all_experiments else requested in
    Format.printf "ReSBM benchmark harness — every table and figure of the evaluation@.";
    Format.printf "parameters: %a@." Ckks.Params.pp prm;
    List.iter (fun name -> (List.assoc name all_experiments) ()) requested
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures.")
          Term.(const run $ experiments $ models $ managers $ out)))
