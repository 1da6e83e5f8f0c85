(* compile-mincut / compile-maxlevel: cold compiles of six paper models
   with one manager on one domain. *)

open Common

(* ResNet-110 is left out: one compile takes ~0.9 s, too few samples per run. *)
let models = Nn.Model.[ resnet20; resnet44; alexnet; vgg16; squeezenet; mobilenet ]
let n_models = List.length models
let dim = 16
let images_per_model = 3

let manager = function
  | "compile-mincut" -> Resbm.Variants.resbm
  | "compile-maxlevel" -> Resbm.Variants.resbm_max
  | w -> invalid_arg ("unknown compile workload " ^ w)

let model_name i = (List.nth models i).Nn.Model.name

(* Set-up: the lowered models and their seeded input images. *)
type inputs = { lowered : Nn.Lowering.t array; images : float array array array }

let setup ~seed =
  let lowered = Array.of_list (List.map Nn.Lowering.lower models) in
  {
    lowered;
    images =
      Array.mapi
        (fun i _ -> Nn.Dataset.images ~seed:(mix seed i) ~dim ~count:images_per_model ())
        lowered;
  }

let cold_compile mgr (l : Nn.Lowering.t) =
  match Resbm.Variants.compile ~jobs:1 mgr prm l.Nn.Lowering.dfg with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

(* --- Per-model output checks ---------------------------------------------------- *)

let certified managed report =
  List.for_all
    (fun (_, diags) -> not (Analysis.Diag.has_errors diags))
    (Resbm.Driver.certify_diags prm managed report)

(* Minimum precision over the model's images of the encrypted run against
   the plaintext interpreter. *)
let precision ~seed i (l : Nn.Lowering.t) images managed =
  let classes = l.Nn.Lowering.model.Nn.Model.classes in
  Array.fold_left Float.min Float.infinity
    (Array.mapi
       (fun k image ->
         let plain = Nn.Inference.run_plain l ~dim image in
         let ev = Ckks.Evaluator.create ~seed:(mix seed (1000 + (10 * i) + k)) prm in
         let enc, _ = Nn.Inference.run_encrypted ev l ~managed image in
         Pipeline.precision_bits ~n:classes enc plain)
       images)

(* Every check of one model; prints what failed and returns the precision. *)
let check_model ~seed mgr t i (l : Nn.Lowering.t) images result ~stable =
  let name = model_name i in
  let fail = ref [] in
  let need ok what = if not ok then fail := what :: !fail in
  let bits =
    match result with
    | Error e ->
        need false ("compile raised " ^ e);
        Float.nan
    | Ok (managed, report) ->
        let d = Pipeline.compile Spans.untraced mgr prm l.Nn.Lowering.dfg in
        need
          (Pipeline.result_key d = Pipeline.report_key report)
          "decomposed pipeline differs from Variants.compile";
        need (certified managed report) "certify_diags reports errors";
        let bits = precision ~seed i l images managed in
        need (bits >= Pipeline.precision_floor_bits)
          (Printf.sprintf "%.2f bits, below the %.0f-bit floor" bits
             Pipeline.precision_floor_bits);
        bits
  in
  need stable "plan differs between passes";
  check t (!fail = []) (name ^ ": " ^ String.concat "; " (List.rev !fail));
  (!fail = [], bits)

(* --- Untraced run: the end-to-end figures ------------------------------------- *)

let run ~workload ~seed ~seconds =
  let mgr = manager workload in
  let t = tally () and s = samples () in
  let canary = Serve_wl.create Serve_wl.canary ~seed t s in
  let start = now () in
  let pass () =
    settle ();
    let inputs = measure s "setup" (fun () -> setup ~seed) in
    let results =
      Array.mapi
        (fun i l -> measure s (model_name i) (fun () -> cold_compile mgr l))
        inputs.lowered
    in
    settle ();
    Serve_wl.timed_campaign canary;
    (inputs, results)
  in
  let inputs, first = pass () in
  let heap = peak_heap_mb () in
  let key = function Ok (_, r) -> Some (Pipeline.report_key r) | Error _ -> None in
  let keys = Array.map key first in
  let stable = Array.make n_models true in
  let ledger = Serve_wl.ledger canary in
  while now () -. start < seconds do
    let _, results = pass () in
    Array.iteri (fun i r -> if key r <> keys.(i) then stable.(i) <- false) results
  done;
  let checked =
    Array.mapi
      (fun i l ->
        check_model ~seed mgr t i l inputs.images.(i) first.(i) ~stable:stable.(i))
      inputs.lowered
  in
  check t canary.Serve_wl.identical "canary campaign report differs between runs";
  let models_ok = Array.fold_left (fun n (ok, _) -> if ok then n + 1 else n) 0 checked in
  let bits = Array.map snd checked in
  let sim =
    Array.fold_left
      (fun a r -> match r with Ok (_, r) -> a +. r.Resbm.Report.latency_ms | Error _ -> a)
      0.0 first
  in
  let passes = count s "setup" in
  let per_pass = Printf.sprintf "(median of %d passes)" passes in
  let sum_models f = List.fold_left ( +. ) 0.0 (List.init n_models (fun i -> f (model_name i))) in
  Printf.printf "raw compile s: median %.4f, fastest %.4f\n"
    (sum_models (fun k -> raw_quantile s k 0.5))
    (sum_models (fun k -> raw_quantile s k 0.0));
  ( t,
    [
    metric "setup_s" "s" (host s "setup") ~note:per_pass;
    metric "compile_s" "s" (sum_models (host s))
      ~note:(Printf.sprintf "(sum of %d per-model medians, %d samples each)" n_models passes);
    metric "serve_host_ms" "ms/batch"
      (1000.0 *. host s "campaign")
      ~note:(Printf.sprintf "(tiny canary, median of %d)" (count s "campaign"));
    metric "sim_latency_ms" "sim_ms" sim;
    metric "precision_bits" "bits" (Array.fold_left Float.min Float.infinity bits)
      ~note:(Printf.sprintf "(%d images per model)" images_per_model);
    metric "success_ratio" "ratio"
      (float_of_int models_ok /. float_of_int n_models)
      ~note:(Printf.sprintf "(%d models)" n_models);
    metric "peak_heap_mb" "MiB" heap;
  ]
  @ Serve_wl.ledger_metrics canary ledger )

(* --- Traced run: the per-layer ledger ------------------------------------------- *)

let traced_run ~workload ~seed ~seconds =
  let mgr = manager workload in
  let t = tally () and s = samples () in
  let spans = Spans.create () in
  let canary = Serve_wl.create Serve_wl.canary ~seed t s in
  let start = now () in
  let ok = Array.make n_models true in
  let firsts = ref None in
  let pass k =
    settle ();
    let inputs = measure s "lower" (fun () -> setup ~seed) in
    let results =
      Array.mapi
        (fun i (l : Nn.Lowering.t) ->
          let item = model_name i in
          let g = l.Nn.Lowering.dfg in
          let r, d =
            Pipeline.compile_both spans s ~flip:(k mod 2 = 1) ~item
              ~untraced:(fun () -> cold_compile mgr l)
              ~traced:(fun w -> Pipeline.compile w mgr prm g)
          in
          let w = Spans.recorder spans ~item in
          (match r with
          | Ok (managed, report) ->
              if Pipeline.report_key report <> Pipeline.result_key d then ok.(i) <- false;
              if not (w.Spans.wrap "certify" (fun () -> certified managed report)) then
                ok.(i) <- false;
              ignore (w.Spans.wrap "noise" (fun () -> Fhe_ir.Noise_check.analyse prm managed));
              let ev = Ckks.Evaluator.create ~seed:(mix seed (2000 + i)) prm in
              ignore
                (w.Spans.wrap "interp" (fun () ->
                     Nn.Inference.run_encrypted ev l ~managed inputs.images.(i).(0)))
          | Error _ -> ok.(i) <- false);
          (item, d, g))
        inputs.lowered
    in
    settle ();
    Serve_wl.timed_campaign ~w:(Spans.recorder spans ~item:"canary") canary;
    if !firsts = None then firsts := Some (Array.to_list results)
  in
  pass 0;
  let ledger = Serve_wl.ledger canary in
  let k = ref 1 in
  while now () -. start < seconds do
    pass !k;
    incr k
  done;
  Array.iteri
    (fun i ok ->
      check t ok
        (model_name i ^ ": compile failed, differs from the decomposed pipeline or is refuted"))
    ok;
  Pipeline.check_trace t spans;
  check t canary.Serve_wl.identical "canary campaign report differs between runs";
  let firsts = Option.get !firsts in
  ( t,
    spans,
    [ ("lower.ms", 1000.0 *. host s "lower") ]
    @ Pipeline.compile_layers spans s firsts
    @ List.map (fun l -> (l ^ ".ms", Spans.host_ms spans l)) [ "certify"; "noise"; "interp" ]
    @ [
        ("serve.campaign.ms", 1000.0 *. host s "campaign_total");
        ("interp.minor_mw", Spans.first_minor_mw spans "interp");
      ]
    @ Serve_wl.ledger_layers ledger )
