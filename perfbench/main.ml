(* The benchmark of the ReSBM compiler, simulator and serving stack.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds and prints, as the last line of
   stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end figures; with --trace 1
   the per-layer ledger of a separate traced run.  See README.md. *)

let workloads = [ "compile-mincut"; "compile-maxlevel"; "serve-chaos" ]

(* The per-layer ledger: every workload reports every entry, 0 where its
   layer does not run.  Host times are measured against the speed probe
   like the end-to-end figures (Common.host); counts come from the first
   pass and repeat exactly. *)
let per_layer =
  List.map (fun n -> (n, "ms"))
    [
      "lower.ms"; "region_build.ms"; "plan.ms"; "apply.ms"; "ms_opt.ms"; "latency.ms";
      "stats.ms"; "certify.ms"; "noise.ms"; "interp.ms"; "plan_cache.warm_ms";
      "recovery.ms"; "serve.campaign.ms"; "compile.p50_ms"; "compile.tail_ms";
    ]
  @ List.map (fun n -> (n, "Mwords"))
      [
        "region_build.minor_mw"; "plan.minor_mw"; "apply.minor_mw"; "ms_opt.minor_mw";
        "interp.minor_mw"; "recovery.minor_mw";
      ]
  @ List.map (fun n -> (n, "count"))
      [
        "btsmgr.segment_evals"; "btsmgr.candidates"; "scalemgr.plans";
        "region_eval.computes"; "smoplc.cuts"; "btsplc.cuts"; "maxflow.runs";
        "maxflow.aug_paths"; "maxflow.bfs_phases"; "driver.regions"; "ms_opt.hoists";
        "ir.nodes_in"; "ir.nodes_managed"; "plan.bootstraps"; "plan.rescales";
        "serve.batches"; "serve.queue_peak"; "serve.dispatch_retries"; "serve.rollbacks";
        "serve.panic_refreshes"; "serve.faults_injected"; "serve.shed.breaker_open";
        "serve.shed.queue_full"; "serve.shed.predicted_miss"; "serve.shed.retry_wont_fit";
      ]
  @ [
      ("plan.cut_yield", "ratio"); ("serve.batch_fill", "ratio");
      ("serve.queue_wait_ms.p50", "sim_ms"); ("trace.coverage", "ratio");
      ("trace.overhead", "ratio");
    ]

let traced workload ~seed ~seconds =
  let t, spans, layers =
    match workload with
    | "serve-chaos" -> Serve_wl.traced_run ~seed ~seconds
    | w -> Compile_wl.traced_run ~workload:w ~seed ~seconds
  in
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Spans.write spans (Filename.concat dir ("spans-" ^ workload ^ ".json"));
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then failwith ("unlisted per-layer metric " ^ name))
    layers;
  ( t,
    List.map
      (fun (name, unit_) ->
        Common.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name layers)))
      per_layer )

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " non-negative workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end figures, 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.0
     || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "perfbench: need --workload, --seed >= 0, --seconds > 0, --trace 0|1";
    exit 2
  end;
  Printf.printf "perfbench %s seed %d seconds %g trace %d\n%!" !workload !seed !seconds !trace;
  let t, metrics =
    match (!workload, !trace) with
    | w, 1 -> traced w ~seed:!seed ~seconds:!seconds
    | "serve-chaos", _ -> Serve_wl.run ~seed:!seed ~seconds:!seconds
    | w, _ -> Compile_wl.run ~workload:w ~seed:!seed ~seconds:!seconds
  in
  Common.emit t metrics
