(* Side-by-side comparison of every scale/bootstrapping manager on one
   model — the per-model slice of Figure 6 and Tables 4-5.

   Run with: dune exec examples/compare_managers.exe [model] [l_max]
   where model is one of resnet20/resnet44/resnet110/alexnet/vgg16/
   squeezenet/mobilenet/lenet5/tiny (default resnet20). *)

let () =
  let model_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "resnet20" in
  let l_max =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2)
    else Ckks.Params.default.Ckks.Params.l_max
  in
  let model =
    match Nn.Model.by_name model_name with
    | Some m -> m
    | None ->
        Format.eprintf "unknown model %s@." model_name;
        exit 1
  in
  let prm =
    Ckks.Params.with_l_max
      { Ckks.Params.default with input_level = l_max }
      l_max
  in
  let lowered = Nn.Lowering.lower model in
  let g = lowered.Nn.Lowering.dfg in
  Format.printf "=== %s (depth %d, %d nodes) at l_max = %d ===@.@." model.Nn.Model.name
    (Fhe_ir.Depth.max_depth g)
    (List.length (Fhe_ir.Dfg.live_nodes g))
    l_max;
  Format.printf "%-12s %11s %12s %5s %9s %9s %9s@." "manager" "compile(ms)"
    "latency(ms)" "bts" "rescales" "modswitch" "vs ReSBM";
  let baseline = ref None in
  List.iter
    (fun mgr ->
      match Resbm.Variants.compile mgr prm g with
      | managed, report ->
          (match Fhe_ir.Scale_check.run prm managed with
          | Ok _ -> ()
          | Error _ -> Format.printf "WARNING: %s produced an illegal graph@." mgr.Resbm.Variants.name);
          let stats = report.Resbm.Report.stats in
          if !baseline = None then baseline := Some report.Resbm.Report.latency_ms;
          let rel =
            match !baseline with
            | Some b -> report.Resbm.Report.latency_ms /. b
            | None -> 1.0
          in
          Format.printf "%-12s %11.1f %12.0f %5d %9d %9d %8.2fx@."
            mgr.Resbm.Variants.name report.Resbm.Report.compile_ms
            report.Resbm.Report.latency_ms stats.Fhe_ir.Stats.bootstrap_count
            stats.Fhe_ir.Stats.executed_rescales stats.Fhe_ir.Stats.executed_modswitches rel
      | exception e ->
          Format.printf "%-12s failed: %s@." mgr.Resbm.Variants.name (Printexc.to_string e))
    Resbm.Variants.all;
  Format.printf
    "@.bootstrap level histograms:@.";
  List.iter
    (fun mgr ->
      let _, report = Resbm.Variants.compile mgr prm g in
      Format.printf "  %-12s %s@." mgr.Resbm.Variants.name
        (String.concat " "
           (List.map
              (fun (l, c) -> Printf.sprintf "L%d:%d" l c)
              report.Resbm.Report.stats.Fhe_ir.Stats.bootstrap_levels)))
    Resbm.Variants.all
