(* resbm — command-line front end for the ReSBM reproduction.

   Subcommands:
     list                      models and managers
     compile                   compile a model and print the plan report
     run                       simulated encrypted inference + fidelity
     trace                     flight-recorded execution -> Perfetto trace
     regions                   show the region partition of a model
     sweep                     l_max sweep for one model (Figure 7 style)
     lint                      verify + lint a compiled model
     certify                   re-check min-cut certificates + level and noise safety
     bench-diff                gate a candidate bench file against a baseline
     explain                   cost waterfall + per-bootstrap min-cut rationale
     chaos                     seeded fault-injection campaign + recovery report
     serve                     simulated slot-batched serving campaign (deadlines, SLO)
     health                    rule-based health verdict over a flight file

   Exit codes: 0 success, 1 usage error, 2 verifier/lint/trace/gate failure.

   Examples:
     resbm compile --model resnet20 --manager fhelipe
     resbm run --model tiny --samples 10 --dim 32
     resbm trace --model resnet20 --out trace.json --summary
     resbm sweep --model resnet20 --l-max 16,14,12,10
     resbm lint --model resnet20 --deny-warnings
     resbm bench-diff bench/baseline/BENCH_small.json BENCH_resbm.json --json diff.json
     resbm trace --model tiny --dim 16 --log-out flight.json
     resbm health --in flight.json *)

open Cmdliner

let model_arg =
  let doc =
    "Model to operate on (resnet20/44/110, alexnet, vgg16, squeezenet, mobilenet, \
     lenet5, tiny)."
  in
  Arg.(value & opt string "resnet20" & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let manager_arg =
  let doc = "Manager: resbm, resbm_max, resbm_eva, resbm_pm, fhelipe." in
  Arg.(value & opt string "resbm" & info [ "manager" ] ~docv:"MANAGER" ~doc)

let l_max_arg =
  let doc = "Maximum bootstrapping level." in
  Arg.(value & opt int 16 & info [ "l-max" ] ~docv:"L" ~doc)

let resolve_model name =
  match Nn.Model.by_name name with
  | Some m -> Ok m
  | None -> Error (`Msg (Printf.sprintf "unknown model %S" name))

let resolve_manager name =
  match Resbm.Variants.by_name name with
  | Some m -> Ok m
  | None -> Error (`Msg (Printf.sprintf "unknown manager %S" name))

let or_die = function
  | Ok v -> v
  | Error (`Msg m) ->
      Format.eprintf "error: %s@." m;
      exit 1

let report_json ~model ~l_max report =
  match Resbm.Report.to_json report with
  | Obs.Json.Obj fields ->
      Obs.Json.Obj (("model", Obs.Json.String model) :: ("l_max", Obs.Json.Int l_max) :: fields)
  | j -> j

let write_json path json =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

(* --- flight files (structured logs + profile) ------------------------------ *)

(* One collector bundle for [--log-out]: a log sink and a profile
   installed ambiently around the command's work and exported together
   as a "flight" file that [resbm health] can judge offline.  A compile
   inside keeps its own profile, so the flight holds what runs around
   compiles: campaign counts, execution counters, the traced noise
   headroom. *)
type flight = { fl_log : Obs.Log.t; fl_profile : Obs.Profile.t }

let write_flight path fl =
  write_json path (Obs.Flight.to_json fl.fl_log fl.fl_profile);
  Format.printf "wrote flight log (%d records, %d dropped) to %s@."
    (List.length (Obs.Log.records fl.fl_log))
    (Obs.Log.dropped fl.fl_log) path

let flight_chrome_events fl = Obs.Log.chrome_events (Obs.Log.records fl.fl_log)

let load_flight path =
  let content =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      Format.eprintf "error: cannot read %s: %s@." path msg;
      exit 1
  in
  match Result.bind (Obs.Json.of_string content) Obs.Flight.of_json with
  | Ok flight -> flight
  | Error msg ->
      Format.eprintf "error: %s: %s@." path msg;
      exit 1

(* The [--log-out] term: a runner for a command body that returns its exit
   code.  With a path, the body runs under a fresh flight collector and the
   flight file is written when it returns or raises — before a non-zero
   code exits, so a failed gate or a planner dead-end still leaves its
   flight behind.  Bodies return their codes rather than call [exit],
   which would skip the write. *)
let flight_arg =
  let log_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-out" ] ~docv:"FILE"
          ~doc:
            "Collect structured logs and runtime counters during the command and \
             write them as a flight file to $(docv) (judged offline by $(b,resbm \
             health --in)).  Chrome trace exports made by the same invocation gain \
             the log instants.")
  in
  let with_flight log_out f =
    let code =
      match log_out with
      | None -> f None
      | Some path ->
          let fl = { fl_log = Obs.Log.create (); fl_profile = Obs.Profile.create () } in
          Fun.protect ~finally:(fun () -> write_flight path fl) @@ fun () ->
          Obs.with_log fl.fl_log @@ fun () ->
          Obs.with_profile fl.fl_profile @@ fun () -> f (Some fl)
    in
    if code <> 0 then exit code
  in
  Term.(const with_flight $ log_out)

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write the compilation profile (per-phase wall times, min-cut and planner \
           counters) as JSON to $(docv).")

(* [Ok] the managed graph and report, or [Error 2] once the per-pass
   verification failure is printed. *)
let compile_verified ~verify_each manager prm g =
  match Resbm.Variants.compile ~verify_each manager prm g with
  | compiled -> Ok compiled
  | exception Resbm.Driver.Verification_failed (pass, diags) ->
      Format.eprintf "error: verification failed after pass %s:@." pass;
      List.iter (fun d -> Format.eprintf "%a@." Analysis.Diag.pp d) diags;
      Error 2

(* --- traced execution (shared by `trace` and `run --trace`) ---------------- *)

let trace_seed = 0x7AB1E6L

(* One flight-recorded simulated inference on a deterministic synthetic
   image.  The trace is returned even when the execution dies with
   [Fhe_error] — the tail of a crashing run is the whole point of a flight
   recorder. *)
let traced_inference prm lowered ~managed ~(report : Resbm.Report.t) ~dim =
  let tr = Obs.Trace.create () in
  let region_of = Resbm.Report.region_of_node report in
  let ev = Ckks.Evaluator.create ~seed:trace_seed prm in
  let image = (Nn.Dataset.images ~seed:trace_seed ~dim ~count:1 ()).(0) in
  let env =
    {
      Fhe_ir.Interp.inputs = [ (lowered.Nn.Lowering.input_name, image) ];
      consts = Nn.Lowering.resolver lowered ~dim;
    }
  in
  let outcome =
    try
      let program = Fhe_ir.Interp.Program.make ~trace:tr ~region_of prm managed in
      Ok (Fhe_ir.Interp.run_program ~trace:tr program ev env)
    with Ckks.Evaluator.Fhe_error e -> Error (Ckks.Evaluator.error_message e)
  in
  (tr, outcome)

(* Compile spans (pid 0) and the simulated execution (pid 1) in one
   Perfetto timeline; with [?flight], log instants join them. *)
let write_chrome_trace ?flight path (report : Resbm.Report.t) tr =
  let extra = match flight with None -> [] | Some fl -> flight_chrome_events fl in
  write_json path
    (Obs.chrome_trace
       (Obs.profile_chrome_events report.Resbm.Report.profile
       @ Obs.Trace.chrome_events tr
       @ extra));
  Format.printf "wrote Chrome trace to %s (open in https://ui.perfetto.dev)@." path

let write_jsonl path tr =
  let oc = open_out path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (Obs.Trace.to_jsonl tr);
  close_out oc;
  Format.printf "wrote %d JSONL events to %s@." (Obs.Trace.recorded tr) path

let print_trace_summary (report : Resbm.Report.t) tr (result : Fhe_ir.Interp.result) =
  Format.printf "executed %d ops, %.1f ms simulated latency (static estimate %.1f ms)@."
    result.Fhe_ir.Interp.op_count result.Fhe_ir.Interp.latency_ms
    report.Resbm.Report.latency_ms;
  Format.printf "trace: %d events recorded, %d dropped by the ring buffer@."
    (Obs.Trace.recorded tr) (Obs.Trace.dropped tr);
  let n = result.Fhe_ir.Interp.noise in
  Format.printf "min noise headroom: %.1f bits (node %d)@."
    n.Fhe_ir.Interp.min_headroom_bits n.Fhe_ir.Interp.min_headroom_node;
  let bts = n.Fhe_ir.Interp.bootstrap_headroom in
  if bts <> [] then begin
    Format.printf "headroom at each bootstrap (%d executed):@." (List.length bts);
    List.iteri
      (fun i (node, bits) ->
        if i < 12 then Format.printf "  node %-6d %7.1f bits@." node bits)
      bts;
    if List.length bts > 12 then Format.printf "  ... (%d more)@." (List.length bts - 12)
  end;
  (* The noisiest table carries the node's region and its frequency-weighted
     Table 2 cost so a headroom scare can be triaged without cross-referencing
     the attribution table below. *)
  let region_name node =
    let r = Resbm.Report.region_of_node report node in
    if r >= 0 then Printf.sprintf "region %d" r else "(unattributed)"
  in
  let node_cost = Hashtbl.create 64 in
  List.iter
    (fun (c : Fhe_ir.Interp.node_cost) ->
      Hashtbl.replace node_cost c.Fhe_ir.Interp.node c.Fhe_ir.Interp.cost_ms)
    result.Fhe_ir.Interp.node_costs;
  Format.printf "noisiest nodes (least headroom):@.";
  Format.printf "  %-11s %12s  %-14s %12s@." "node" "headroom" "region" "cost";
  List.iter
    (fun (node, bits) ->
      Format.printf "  node %-6d %7.1f bits  %-14s %9.3f ms@." node bits
        (region_name node)
        (Option.value ~default:0.0 (Hashtbl.find_opt node_cost node)))
    n.Fhe_ir.Interp.noisiest;
  (* Per-region latency attribution, consistent with Report.t's partition. *)
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (c : Fhe_ir.Interp.node_cost) ->
      let ms, ops =
        Option.value (Hashtbl.find_opt totals c.Fhe_ir.Interp.region) ~default:(0.0, 0)
      in
      Hashtbl.replace totals c.Fhe_ir.Interp.region
        (ms +. c.Fhe_ir.Interp.cost_ms, ops + 1))
    result.Fhe_ir.Interp.node_costs;
  let rows =
    Hashtbl.fold (fun r (ms, ops) acc -> (r, ms, ops) :: acc) totals []
    |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  in
  Format.printf "per-region latency attribution (%d regions, top %d by latency):@."
    report.Resbm.Report.region_count
    (min 12 (List.length rows));
  List.iteri
    (fun i (r, ms, ops) ->
      if i < 12 then
        Format.printf "  %-14s %12.1f ms %6.1f%% %6d nodes@."
          (if r < 0 then "(unattributed)" else Printf.sprintf "region %d" r)
          ms
          (100.0 *. ms /. Float.max 1e-9 result.Fhe_ir.Interp.latency_ms)
          ops)
    rows;
  if List.length rows > 12 then
    Format.printf "  ... (%d more regions)@." (List.length rows - 12)

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Format.printf "models:@.";
    List.iter
      (fun m ->
        Format.printf "  %-12s depth %4d, %d classes@." m.Nn.Model.name (Nn.Model.depth m)
          m.Nn.Model.classes)
      (Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ]);
    Format.printf "@.managers:@.";
    List.iter (fun m -> Format.printf "  %s@." m.Resbm.Variants.name) Resbm.Variants.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available models and managers.")
    Term.(const run $ const ())

(* --- compile --------------------------------------------------------------- *)

let compile_cmd =
  let run model manager l_max verify_each verbose emit_path profile_path trace_out
      with_flight =
    with_flight @@ fun fl ->
    let model = or_die (resolve_model model) in
    let manager = or_die (resolve_manager manager) in
    let prm = Ckks.Params.at_l_max l_max in
    let lowered = Nn.Lowering.lower model in
    match compile_verified ~verify_each manager prm lowered.Nn.Lowering.dfg with
    | Error code -> code
    | Ok (managed, report) ->
        let diags = Analysis.Verify.run prm managed in
        List.iter (fun d -> Format.eprintf "%a@." Analysis.Diag.pp d) diags;
        if Analysis.Diag.has_errors diags then begin
          Format.eprintf "error: managed graph is illegal@.";
          2
        end
        else begin
          Format.printf "%a@." Resbm.Report.pp report;
          (match profile_path with
          | Some path ->
              write_json path (report_json ~model:model.Nn.Model.name ~l_max report);
              Format.printf "wrote profile to %s@." path
          | None -> ());
          (match trace_out with
          | Some path ->
              let extra =
                match fl with None -> [] | Some fl -> flight_chrome_events fl
              in
              write_json path
                (Obs.chrome_trace
                   (Obs.profile_chrome_events report.Resbm.Report.profile @ extra));
              Format.printf "wrote compile-pipeline Chrome trace to %s@." path
          | None -> ());
          if verbose then begin
            (* one scale/level inference shared by every analysis below *)
            let info = Fhe_ir.Scale_check.infer prm managed in
            Format.printf "@.latency by operation kind:@.";
            List.iter
              (fun (op, ms) ->
                Format.printf "  %-16s %14.1f ms@." (Ckks.Cost_model.op_name op) ms)
              (Fhe_ir.Latency.by_kind ~info prm managed);
            let const_magnitude = Nn.Lowering.(const_magnitude (resolver lowered ~dim:8)) in
            let worst = Fhe_ir.Noise_check.analyse ~const_magnitude prm managed in
            let typical =
              Fhe_ir.Noise_check.analyse ~const_magnitude ~magnitude_cap:0.5 prm managed
            in
            Format.printf
              "@.predicted output precision: %.1f bits (typical activations), %.1f bits \
               (worst case)@."
              typical.Fhe_ir.Noise_check.output_precision_bits
              worst.Fhe_ir.Noise_check.output_precision_bits;
            Format.printf "memory: %a@." Fhe_ir.Liveness.pp
              (Fhe_ir.Liveness.analyse prm managed)
          end;
          (match emit_path with
          | Some path ->
              Fhe_ir.Emit.write_file ~program_name:model.Nn.Model.name prm ~path managed;
              Format.printf "emitted C program to %s@." path
          | None -> ());
          0
        end
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print latency/noise/memory analyses.")
  in
  let emit_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"FILE" ~doc:"Emit the managed program as C against the ACElib-style API.")
  in
  let verify_each =
    Arg.(
      value & flag
      & info [ "verify-each" ]
          ~doc:"Run the invariant verifier after every compiler pass (fail fast).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the compile-pipeline spans as Chrome trace-event JSON to $(docv) \
             (same dialect as `resbm trace`, so compile and run phases load into one \
             Perfetto timeline).")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model and print the management report.")
    Term.(
      const run $ model_arg $ manager_arg $ l_max_arg $ verify_each $ verbose $ emit_path
      $ profile_arg $ trace_out $ flight_arg)

(* --- run -------------------------------------------------------------------- *)

let run_cmd =
  let run model manager l_max samples dim trace_path =
    let model = or_die (resolve_model model) in
    let manager = or_die (resolve_manager manager) in
    let prm = Ckks.Params.at_l_max l_max in
    let lowered = Nn.Lowering.lower model in
    let managed, report = Resbm.Variants.compile manager prm lowered.Nn.Lowering.dfg in
    Format.printf "compiled %s with %s in %.1f ms@." model.Nn.Model.name
      manager.Resbm.Variants.name report.Resbm.Report.compile_ms;
    let fid = Nn.Inference.fidelity ~samples ~dim prm lowered ~managed in
    Format.printf "%a@." Nn.Inference.pp_fidelity fid;
    Format.printf "mean simulated latency per inference: %.1f s@."
      (fid.Nn.Inference.mean_latency_ms /. 1000.0);
    match trace_path with
    | None -> ()
    | Some path -> (
        let tr, outcome = traced_inference prm lowered ~managed ~report ~dim in
        write_chrome_trace path report tr;
        match outcome with
        | Ok _ -> ()
        | Error msg ->
            Format.eprintf "error: traced execution failed: %s@." msg;
            exit 2)
  in
  let samples = Arg.(value & opt int 10 & info [ "samples" ] ~docv:"N" ~doc:"Samples.") in
  let dim = Arg.(value & opt int 64 & info [ "dim" ] ~docv:"D" ~doc:"Slots per image.") in
  let trace_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Additionally flight-record one inference and write the Chrome \
             trace-event JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run simulated encrypted inference and report fidelity.")
    Term.(const run $ model_arg $ manager_arg $ l_max_arg $ samples $ dim $ trace_path)

(* --- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let run model manager l_max dim out jsonl summary verify_each with_flight =
    with_flight @@ fun fl ->
    let model = or_die (resolve_model model) in
    let manager = or_die (resolve_manager manager) in
    let prm = Ckks.Params.at_l_max l_max in
    let lowered = Nn.Lowering.lower model in
    match compile_verified ~verify_each manager prm lowered.Nn.Lowering.dfg with
    | Error code -> code
    | Ok (managed, report) ->
        Format.printf "compiled %s with %s in %.1f ms@." model.Nn.Model.name
          manager.Resbm.Variants.name report.Resbm.Report.compile_ms;
        let tr, outcome = traced_inference prm lowered ~managed ~report ~dim in
        (* The flight's profile carries the traced noise headroom and the
           ring's loss too, for Health's noise-headroom and ring-overflow
           rules. *)
        (match fl with
        | Some fl ->
            List.iter
              (fun (e : Obs.Trace.op_event) ->
                Obs.Profile.observe_min fl.fl_profile "noise_headroom_bits"
                  (Obs.Trace.headroom_bits e.noise_after))
              (Obs.Trace.op_events tr);
            Obs.Profile.incr ~by:(Obs.Trace.dropped tr) fl.fl_profile
              "trace_dropped_events"
        | None -> ());
        (match out with
        | Some path -> write_chrome_trace ?flight:fl path report tr
        | None -> ());
        (match jsonl with Some path -> write_jsonl path tr | None -> ());
        match outcome with
        | Error msg ->
            Format.eprintf
              "error: execution failed (the trace above ends with the fhe_error \
               instant):@.%s@."
              msg;
            2
        | Ok result ->
            if summary then print_trace_summary report tr result;
            if not verify_each then 0
            else begin
              let const_magnitude = Nn.Lowering.(const_magnitude (resolver lowered ~dim)) in
              let static = Fhe_ir.Noise_check.analyse ~const_magnitude prm managed in
              let mismatches =
                Fhe_ir.Noise_check.check_trace static (Obs.Trace.op_events tr)
              in
              if mismatches = [] then begin
                Format.printf "noise cross-validation: traced noise within the static \
                               estimate on every attributed op@.";
                0
              end
              else begin
                Format.eprintf "error: traced noise exceeds the static estimate:@.";
                List.iter
                  (fun m -> Format.eprintf "  %a@." Fhe_ir.Noise_check.pp_trace_mismatch m)
                  mismatches;
                2
              end
            end
  in
  let dim =
    Arg.(value & opt int 64 & info [ "dim" ] ~docv:"D" ~doc:"Slots per synthetic image.")
  in
  let out =
    Arg.(
      value
      & opt (some string) (Some "trace.json")
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the combined compile+execute Chrome trace-event JSON to $(docv) \
             (loadable in Perfetto).")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also write the raw event stream as JSON Lines to $(docv).")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Print the noise-budget summary (min headroom, headroom at each \
             bootstrap, noisiest nodes) and per-region latency attribution.")
  in
  let verify_each =
    Arg.(
      value & flag
      & info [ "verify-each" ]
          ~doc:
            "Verify after every compiler pass, then cross-validate the trace's \
             recorded noise against the static estimate (exit 2 on mismatch).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one flight-recorded simulated inference and export the execution \
          timeline (per-op events, noise/level/scale counter tracks) for Perfetto.")
    Term.(
      const run $ model_arg $ manager_arg $ l_max_arg $ dim $ out $ jsonl $ summary
      $ verify_each $ flight_arg)

(* --- regions ------------------------------------------------------------------ *)

let regions_cmd =
  let run model limit =
    let model = or_die (resolve_model model) in
    let lowered = Nn.Lowering.lower model in
    let regioned = Resbm.Region.build lowered.Nn.Lowering.dfg in
    Format.printf "%s: %d regions (multiplicative depth %d)@." model.Nn.Model.name
      regioned.Resbm.Region.count
      (Fhe_ir.Depth.max_depth lowered.Nn.Lowering.dfg);
    for r = 0 to min (limit - 1) (regioned.Resbm.Region.count - 1) do
      let members = Resbm.Region.members regioned r in
      Format.printf "  R%-4d %3d nodes, %d muls, %d live-outs@." r (Array.length members)
        (List.length (Resbm.Region.muls regioned r))
        (List.length (Resbm.Region.live_out regioned r))
    done;
    if regioned.Resbm.Region.count > limit then
      Format.printf "  ... (%d more regions)@." (regioned.Resbm.Region.count - limit)
  in
  let limit = Arg.(value & opt int 24 & info [ "limit" ] ~docv:"N" ~doc:"Regions to show.") in
  Cmd.v
    (Cmd.info "regions" ~doc:"Show the region partition of a model's DFG.")
    Term.(const run $ model_arg $ limit)

(* --- export ---------------------------------------------------------------------- *)

let export_cmd =
  let run model manager l_max managed_flag output =
    let model = or_die (resolve_model model) in
    let prm = Ckks.Params.at_l_max l_max in
    let lowered = Nn.Lowering.lower model in
    let g = lowered.Nn.Lowering.dfg in
    let regioned = Resbm.Region.build g in
    let graph, annotate =
      if managed_flag then begin
        let manager = or_die (resolve_manager manager) in
        let managed, _ = Resbm.Variants.compile manager prm g in
        let info = Fhe_ir.Scale_check.infer prm managed in
        let annotate id =
          if id < Array.length info && info.(id).Fhe_ir.Scale_check.is_ct then
            Some
              (Printf.sprintf "L%d, 2^%d" info.(id).Fhe_ir.Scale_check.level
                 info.(id).Fhe_ir.Scale_check.scale_bits)
          else None
        in
        (managed, annotate)
      end
      else (g, fun _ -> None)
    in
    let cluster id =
      if id < Array.length regioned.Resbm.Region.region_of then
        Some regioned.Resbm.Region.region_of.(id)
      else None
    in
    Fhe_ir.Dot.write_file ~name:model.Nn.Model.name ~cluster ~annotate ~path:output graph;
    Format.printf "wrote %s (%d nodes); render with: dot -Tsvg %s -o graph.svg@." output
      (List.length (Fhe_ir.Dfg.live_nodes graph))
      output
  in
  let managed_flag =
    Arg.(value & flag & info [ "managed" ] ~doc:"Export the managed graph with levels.")
  in
  let output =
    Arg.(value & opt string "dfg.dot" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a model's DFG as Graphviz, clustered by region.")
    Term.(const run $ model_arg $ manager_arg $ l_max_arg $ managed_flag $ output)

(* --- lint ------------------------------------------------------------------------ *)

let lint_cmd =
  let run model manager l_max json_path deny_warnings sources =
    let model = or_die (resolve_model model) in
    let manager = or_die (resolve_manager manager) in
    let prm = Ckks.Params.at_l_max l_max in
    let lowered = Nn.Lowering.lower model in
    let managed, _report =
      try Resbm.Variants.compile ~verify_each:true manager prm lowered.Nn.Lowering.dfg
      with Resbm.Driver.Verification_failed (pass, diags) ->
        Format.eprintf "error: verification failed after pass %s:@." pass;
        List.iter (fun d -> Format.eprintf "%a@." Analysis.Diag.pp d) diags;
        exit 2
    in
    (* typical-activation noise prediction, as in compile -v: the lowering
       knows the weight amplitudes, and activations stay inside the
       polynomial domain *)
    let const_magnitude = Nn.Lowering.(const_magnitude (resolver lowered ~dim:8)) in
    let source_diags =
      List.concat_map (fun dir -> Analysis.Lint.scan_planner_sources ~dir) sources
    in
    let diags =
      Analysis.Diag.sort
        (Analysis.Verify.run prm managed
        @ Analysis.Lint.run ~magnitude_cap:0.5 ~const_magnitude prm managed
        @ source_diags)
    in
    List.iter (fun d -> Format.printf "%a@." Analysis.Diag.pp_verbose d) diags;
    let errors = Analysis.Diag.count Analysis.Diag.Error diags in
    let warnings = Analysis.Diag.count Analysis.Diag.Warning diags in
    let hints = Analysis.Diag.count Analysis.Diag.Hint diags in
    Format.printf "%s %s: %d error%s, %d warning%s, %d hint%s@." model.Nn.Model.name
      manager.Resbm.Variants.name errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")
      hints
      (if hints = 1 then "" else "s");
    (match json_path with
    | Some path ->
        let json =
          match Analysis.Diag.list_to_json diags with
          | Obs.Json.Obj fields ->
              Obs.Json.Obj
                (("model", Obs.Json.String model.Nn.Model.name)
                :: ("manager", Obs.Json.String manager.Resbm.Variants.name)
                :: ("l_max", Obs.Json.Int l_max)
                :: fields)
          | j -> j
        in
        write_json path json;
        Format.printf "wrote diagnostics to %s@." path
    | None -> ());
    if errors > 0 || (deny_warnings && warnings > 0) then exit 2
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the diagnostics as JSON to $(docv).")
  in
  let deny_warnings =
    Arg.(
      value & flag
      & info [ "deny-warnings" ]
          ~doc:"Exit with code 2 when any warning-severity diagnostic fires.")
  in
  let sources =
    Arg.(
      value
      & opt_all string []
      & info [ "sources" ] ~docv:"DIR"
          ~doc:
            "Additionally run the source-level determinism lint over the planner \
             sources in $(docv) (repeatable): flags Hashtbl.iter/fold call sites, \
             whose hash-order iteration breaks plan reproducibility — planner code \
             drains hashtables through Det.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Compile a model with per-pass verification, then run the verifier and lint \
          suite on the managed graph (plus the source-level determinism lint with \
          $(b,--sources)).")
    Term.(
      const run $ model_arg $ manager_arg $ l_max_arg $ json_path $ deny_warnings
      $ sources)

(* --- certify --------------------------------------------------------------------- *)

let certify_cmd =
  let run models managers l_max json_path =
    let all_models = Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ] in
    let split s =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    in
    let models =
      if String.lowercase_ascii (String.trim models) = "all" then all_models
      else List.map (fun m -> or_die (resolve_model m)) (split models)
    in
    let managers =
      if String.lowercase_ascii (String.trim managers) = "all" then Resbm.Variants.all
      else List.map (fun m -> or_die (resolve_manager m)) (split managers)
    in
    if models = [] then or_die (Error (`Msg "no models given"));
    if managers = [] then or_die (Error (`Msg "no managers given"));
    let prm = Ckks.Params.at_l_max l_max in
    let refuted = ref 0 in
    let cases = ref [] in
    List.iter
      (fun model ->
        let lowered = Nn.Lowering.lower model in
        List.iter
          (fun manager ->
            let managed, report =
              Resbm.Variants.compile manager prm lowered.Nn.Lowering.dfg
            in
            (* Re-enter the compile's profile so the certify.* spans land
               next to the compile phases they are compared with. *)
            let groups =
              Obs.with_profile report.Resbm.Report.profile (fun () ->
                  Resbm.Driver.certify_diags prm managed report)
            in
            let diags = List.concat_map snd groups in
            let errors = Analysis.Diag.count Analysis.Diag.Error diags in
            let warnings = Analysis.Diag.count Analysis.Diag.Warning diags in
            if errors > 0 then incr refuted;
            let span_ms name =
              List.fold_left
                (fun acc (s : Obs.Profile.span) ->
                  if s.Obs.Profile.name = name then acc +. s.Obs.Profile.dur_ms
                  else acc)
                0.0
                (Obs.Profile.spans report.Resbm.Report.profile)
            in
            let certify_ms = span_ms "certify" in
            Format.printf
              "%-12s %-12s %3d certificates: %-9s (%d error%s, %d warning%s, certify \
               %.2f ms, compile %.2f ms)@."
              model.Nn.Model.name manager.Resbm.Variants.name
              (List.length report.Resbm.Report.certificates)
              (if errors = 0 then "certified" else "REFUTED")
              errors
              (if errors = 1 then "" else "s")
              warnings
              (if warnings = 1 then "" else "s")
              certify_ms report.Resbm.Report.compile_ms;
            List.iter
              (fun (group, ds) ->
                List.iter
                  (fun (d : Analysis.Diag.t) ->
                    if d.Analysis.Diag.severity <> Analysis.Diag.Hint then
                      Format.printf "  [%s] %a@." group Analysis.Diag.pp_verbose d)
                  ds)
              groups;
            cases :=
              Obs.Json.Obj
                [
                  ("model", Obs.Json.String model.Nn.Model.name);
                  ("manager", Obs.Json.String manager.Resbm.Variants.name);
                  ("l_max", Obs.Json.Int l_max);
                  ( "certificates",
                    Obs.Json.Int (List.length report.Resbm.Report.certificates) );
                  ("certified", Obs.Json.Bool (errors = 0));
                  ("certify_ms", Obs.Json.Float certify_ms);
                  ("certify_cuts_ms", Obs.Json.Float (span_ms "certify.cuts"));
                  ("certify_levels_ms", Obs.Json.Float (span_ms "certify.levels"));
                  ("certify_noise_ms", Obs.Json.Float (span_ms "certify.noise"));
                  ("compile_ms", Obs.Json.Float report.Resbm.Report.compile_ms);
                  ( "groups",
                    Obs.Json.Obj
                      (List.map
                         (fun (group, ds) -> (group, Analysis.Diag.list_to_json ds))
                         groups) );
                ]
              :: !cases)
          managers)
      models;
    Format.printf "%d/%d plans certified@."
      (List.length !cases - !refuted)
      (List.length !cases);
    (match json_path with
    | Some path ->
        write_json path (Obs.Json.Obj [ ("cases", Obs.Json.List (List.rev !cases)) ]);
        Format.printf "wrote certification report to %s@." path
    | None -> ());
    if !refuted > 0 then exit 2
  in
  let models =
    Arg.(
      value & opt string "all"
      & info [ "models" ] ~docv:"M1,M2,.."
          ~doc:"Comma-separated model names, or $(b,all) (the default).")
  in
  let managers =
    Arg.(
      value & opt string "all"
      & info [ "managers" ] ~docv:"M1,M2,.."
          ~doc:"Comma-separated manager names, or $(b,all) (the default).")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the per-case certification diagnostics (grouped by certify.cuts / \
             certify.levels / certify.noise) as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Compile the model/manager matrix and check every plan's evidence: re-verify \
          each min-cut optimality certificate (LP duality), prove level/capacity \
          safety with the pass verifier's strict Table 1 rules, and check the static \
          noise estimate against the modulus chain.  Exit 2 when any plan is \
          refuted.")
    Term.(const run $ models $ managers $ l_max_arg $ json_path)

(* --- sweep ----------------------------------------------------------------------- *)

let sweep_cmd =
  let run model levels profile_path =
    let model = or_die (resolve_model model) in
    let lowered = Nn.Lowering.lower model in
    let g = lowered.Nn.Lowering.dfg in
    let levels =
      String.split_on_char ',' levels
      |> List.filter_map (fun s -> int_of_string_opt (String.trim s))
    in
    let profiled = ref [] in
    Format.printf "%5s %14s %14s %8s %7s %7s@." "l_max" "ReSBM(ms)" "Fhelipe(ms)" "gain"
      "bts-R" "bts-F";
    List.iter
      (fun l_max ->
        let prm = Ckks.Params.at_l_max l_max in
        let _, r = Resbm.Variants.compile Resbm.Variants.resbm prm g in
        let _, f = Resbm.Variants.compile Resbm.Variants.fhelipe prm g in
        if profile_path <> None then
          profiled :=
            report_json ~model:model.Nn.Model.name ~l_max f
            :: report_json ~model:model.Nn.Model.name ~l_max r
            :: !profiled;
        Format.printf "%5d %14.0f %14.0f %7.1f%% %7d %7d@." l_max
          r.Resbm.Report.latency_ms f.Resbm.Report.latency_ms
          (100.0 *. (1.0 -. (r.Resbm.Report.latency_ms /. f.Resbm.Report.latency_ms)))
          r.Resbm.Report.stats.Fhe_ir.Stats.bootstrap_count
          f.Resbm.Report.stats.Fhe_ir.Stats.bootstrap_count)
      levels;
    match profile_path with
    | Some path ->
        write_json path (Obs.Json.List (List.rev !profiled));
        Format.printf "wrote %d profiles to %s@." (List.length !profiled) path
    | None -> ()
  in
  let levels =
    Arg.(
      value & opt string "16,14,12,10" & info [ "l-max" ] ~docv:"L1,L2,.." ~doc:"Levels.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep l_max for one model (Figure 7 style).")
    Term.(const run $ model_arg $ levels $ profile_arg)

(* --- bench-diff ------------------------------------------------------------------ *)

let bench_diff_cmd =
  let run base_path cand_path json_path all =
    let load path =
      let content =
        try
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        with Sys_error msg ->
          Format.eprintf "error: cannot read %s: %s@." path msg;
          exit 1
      in
      match Obs.Bench_diff.load content with
      | Ok src -> src
      | Error msg ->
          Format.eprintf "error: %s: %s@." path msg;
          exit 1
    in
    let base = load base_path and cand = load cand_path in
    match Obs.Bench_diff.diff ~base ~cand with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit 1
    | Ok outcome ->
        Format.printf "%a@." (Obs.Bench_diff.pp_outcome ~all) outcome;
        (match json_path with
        | Some path ->
            write_json path (Obs.Bench_diff.outcome_to_json outcome);
            Format.printf "wrote diff report to %s@." path
        | None -> ());
        exit (Obs.Bench_diff.exit_code outcome)
  in
  let base_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc:"Baseline bench JSON.")
  in
  let cand_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE" ~doc:"Candidate bench JSON.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the per-cell diff report as JSON to $(docv).")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Print every cell, not just the changed ones.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench JSON files cell by cell: deterministic planner metrics, \
          work counters and plan digests exactly; the candidate's warm-cache \
          speedup against its 5x floor.  Exit 2 on any changed cell or plan drift \
          (improvements too, since they invalidate the committed baseline) or on \
          misaligned rows, 1 on unreadable input, 0 otherwise.")
    Term.(const run $ base_path $ cand_path $ json_path $ all)

(* --- explain ---------------------------------------------------------------------- *)

let top_arg =
  Arg.(
    value & opt int 5
    & info [ "top" ] ~docv:"K"
        ~doc:
          "Individually-listed nodes per op-kind bucket; the rest fold into an \
           explicit remainder row (never dropped).")

let explain_cmd =
  let run model manager l_max top trace_path json_path =
    let model = or_die (resolve_model model) in
    let manager = or_die (resolve_manager manager) in
    let prm = Ckks.Params.at_l_max l_max in
    let lowered = Nn.Lowering.lower model in
    let orig_nodes = Fhe_ir.Dfg.node_count lowered.Nn.Lowering.dfg in
    let managed, report = Resbm.Variants.compile manager prm lowered.Nn.Lowering.dfg in
    let wf = Resbm.Explain.attribution ~top prm ~managed report in
    let rationales = Resbm.Explain.rationales prm ~orig_nodes ~managed report in
    Format.printf "%a@."
      (Obs.Explain.pp
         ~title:
           (Printf.sprintf "%s / %s @ l_max %d — predicted cost attribution"
              model.Nn.Model.name manager.Resbm.Variants.name l_max))
      wf;
    Format.printf "@.bootstrap rationale (%d placed):@." (List.length rationales);
    List.iter
      (fun r -> Format.printf "  %a@." (Resbm.Explain.pp_rationale managed) r)
      rationales;
    (* Cross-check the static attribution against a flight-recorded run:
       [resbm trace --jsonl FILE] writes per-op events carrying each node's
       freq-weighted cost; any node whose traced cost disagrees with the
       Table 2 attribution means the plan the explainer describes is not
       the plan that executed. *)
    let trace_check =
      match trace_path with
      | None -> None
      | Some path ->
          let lines =
            let ic =
              try open_in path
              with Sys_error msg ->
                Format.eprintf "error: cannot read %s: %s@." path msg;
                exit 1
            in
            let acc = ref [] in
            (try
               while true do
                 acc := input_line ic :: !acc
               done
             with End_of_file -> close_in ic);
            List.rev !acc
          in
          let traced = Hashtbl.create 256 in
          List.iter
            (fun line ->
              if String.trim line <> "" then
                match Obs.Json.of_string line with
                | Ok j when Obs.Json.member "type" j = Some (Obs.Json.String "op") -> (
                    match (Obs.Json.member "node" j, Obs.Json.member "dur_ms" j) with
                    | Some (Obs.Json.Int node), Some dur when node >= 0 ->
                        let ms =
                          match dur with
                          | Obs.Json.Float f -> f
                          | Obs.Json.Int i -> float_of_int i
                          | _ -> 0.0
                        in
                        (* Every event of a node carries the node's full
                           freq-weighted cost, so keep-one (not sum). *)
                        Hashtbl.replace traced node ms
                    | _ -> ())
                | _ -> ())
            lines;
          let info = Fhe_ir.Scale_check.infer prm managed in
          let compared = ref 0 and max_dev = ref 0.0 and worst = ref (-1) in
          Hashtbl.iter
            (fun node traced_ms ->
              if node < Fhe_ir.Dfg.node_count managed then begin
                let predicted = Fhe_ir.Latency.node_cost prm managed info node in
                incr compared;
                let dev = Float.abs (traced_ms -. predicted) in
                if dev > !max_dev then begin
                  max_dev := dev;
                  worst := node
                end
              end)
            traced;
          Format.printf
            "@.traced cross-check (%s): %d nodes compared, max |traced - predicted| \
             %.6f ms%s@."
            path !compared !max_dev
            (if !worst >= 0 && !max_dev > 1e-6 then
               Printf.sprintf " (node %d)" !worst
             else "");
          Some (!compared, !max_dev)
    in
    (match json_path with
    | Some path ->
        let open Obs.Json in
        write_json path
          (Obj
             ([
                ("model", String model.Nn.Model.name);
                ("manager", String manager.Resbm.Variants.name);
                ("l_max", Int l_max);
                ("attribution", Obs.Explain.to_json wf);
                ( "rationales",
                  List (List.map Resbm.Explain.rationale_to_json rationales) );
                ("digest", Resbm.Explain.digest prm ~managed report);
              ]
             @
             match trace_check with
             | None -> []
             | Some (compared, max_dev) ->
                 [
                   ( "trace_check",
                     Obj
                       [
                         ("nodes_compared", Int compared);
                         ("max_deviation_ms", Float max_dev);
                       ] );
                 ]));
        Format.printf "wrote explain report to %s@." path
    | None -> ());
    (* An attribution that misses real cost is an explainability bug. *)
    let attributed = Obs.Explain.attributed wf in
    if wf.Obs.Explain.total > 0.0 && attributed < 0.99 *. wf.Obs.Explain.total then begin
      Format.eprintf "error: only %.1f%% of the predicted latency is attributed@."
        (100.0 *. attributed /. wf.Obs.Explain.total);
      exit 2
    end
  in
  let trace_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Cross-check the static attribution against the flight-recorded JSONL \
             trace in $(docv) (written by $(b,resbm trace --jsonl)): compares every \
             traced node's freq-weighted cost with the Table 2 prediction.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the waterfall, per-bootstrap rationales and the structural plan \
             digest as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a compiled plan: a deterministic hierarchical cost waterfall \
          (total -> region -> op kind -> top-k nodes, plus bootstrap / rescale / \
          modswitch shares), and, for every placed bootstrap, the min-cut \
          certificate evidence pinning it there with a counterfactual cost of \
          moving it (the region's next-best cut).  Exit 2 when less than 99% of \
          the predicted latency is attributed.")
    Term.(
      const run $ model_arg $ manager_arg $ l_max_arg $ top_arg $ trace_path
      $ json_path)

(* --- chaos ------------------------------------------------------------------------ *)

let chaos_cmd =
  let run models trials seed l_max dim rate no_retries from_trace json_path min_recovery
      with_flight =
    with_flight @@ fun _ ->
    let models =
      String.split_on_char ',' models
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if models = [] then or_die (Error (`Msg "no models given"));
    List.iter (fun m -> ignore (or_die (resolve_model m))) models;
    let seed =
      match Int64.of_string_opt seed with
      | Some s -> s
      | None -> or_die (Error (`Msg (Printf.sprintf "bad seed %S" seed)))
    in
    let cfg =
      {
        Resilience.Chaos.seed;
        trials;
        models;
        l_max;
        dim;
        rate;
        no_retries;
        from_trace;
      }
    in
    let report = Resilience.Chaos.run cfg in
    List.iter
      (fun (m : Resilience.Chaos.model_summary) ->
        Format.printf
          "%-12s %d trials, %d faulted (%d faults): %d recovered (rate %.3f), %d \
           retries, %d panic refreshes, tolerance %.2e@."
          m.Resilience.Chaos.model m.Resilience.Chaos.trials_run
          m.Resilience.Chaos.faulted_trials m.Resilience.Chaos.injected_faults
          m.Resilience.Chaos.recovered_trials m.Resilience.Chaos.recovery_rate
          m.Resilience.Chaos.total_retries m.Resilience.Chaos.total_panic_refreshes
          m.Resilience.Chaos.tolerance;
        List.iter
          (fun (kind, count) ->
            let ms =
              Option.value ~default:0.0
                (List.assoc_opt kind
                   m.Resilience.Chaos.recovery.Resilience.Recovery.recovery_ms_by_kind)
            in
            Format.printf "  %-14s %4d injected, %10.1f ms simulated recovery@." kind
              count ms)
          m.Resilience.Chaos.faults_by_kind;
        if m.Resilience.Chaos.fault_targets <> [] then begin
          Format.printf "  targeted %d trace hot-spots:@."
            (List.length m.Resilience.Chaos.fault_targets);
          List.iteri
            (fun i (node, ratio) ->
              if i < 8 then
                Format.printf "    node %-6d traced/predicted noise x%.2f@." node ratio)
            m.Resilience.Chaos.fault_targets
        end)
      report.Resilience.Chaos.models;
    Format.printf "overall: %d/%d faulted trials recovered (rate %.3f)@."
      report.Resilience.Chaos.total_recovered report.Resilience.Chaos.total_faulted
      report.Resilience.Chaos.overall_recovery_rate;
    (match json_path with
    | Some path ->
        write_json path (Resilience.Chaos.to_json report);
        Format.printf "wrote campaign report to %s@." path
    | None -> ());
    let clean_broken =
      List.filter
        (fun (m : Resilience.Chaos.model_summary) ->
          not m.Resilience.Chaos.clean_identical)
        report.Resilience.Chaos.models
    in
    if clean_broken <> [] then begin
      List.iter
        (fun (m : Resilience.Chaos.model_summary) ->
          Format.eprintf
            "error: %s: an injection-free trial diverged from the reference (fault-off \
             runs must be bit-identical)@."
            m.Resilience.Chaos.model)
        clean_broken;
      2
    end
    else
      match min_recovery with
      | Some r when report.Resilience.Chaos.overall_recovery_rate < r ->
          Format.eprintf "error: recovery rate %.3f below required %.3f@."
            report.Resilience.Chaos.overall_recovery_rate r;
          2
      | _ -> 0
  in
  let models =
    Arg.(
      value & opt string "tiny"
      & info [ "models" ] ~docv:"M1,M2,.."
          ~doc:"Comma-separated model names to subject to the campaign.")
  in
  let trials =
    Arg.(value & opt int 25 & info [ "trials" ] ~docv:"N" ~doc:"Trials per model.")
  in
  let seed =
    Arg.(
      value & opt string "0xC4A05"
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign master seed (decimal or 0x hex).  Fault plans, the evaluator \
             noise stream and the report are all deterministic in it.")
  in
  let dim =
    Arg.(value & opt int 64 & info [ "dim" ] ~docv:"D" ~doc:"Slots per synthetic image.")
  in
  let rate =
    Arg.(
      value & opt float 0.02
      & info [ "rate" ] ~docv:"P"
          ~doc:"Base per-op injection probability (scaled per fault kind).")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the campaign report as JSON to $(docv) (byte-identical across runs \
             with the same seed and config).")
  in
  let no_retries =
    Arg.(
      value & flag
      & info [ "no-retries" ]
          ~doc:
            "Retry-less campaign: recovery runs with zero rollback attempts and fault \
             plans inject only noise spikes, driving every detected fault through the \
             panic re-bootstrap repair path instead of rollback-retry.")
  in
  let min_recovery =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-recovery" ] ~docv:"RATE"
          ~doc:"Exit with code 2 when the overall recovery rate falls below $(docv).")
  in
  let from_trace =
    Arg.(
      value & flag
      & info [ "from-trace" ]
          ~doc:
            "Aim fault injection at trace hot-spots: flight-record the fault-free \
             reference run, rank each node's traced noise against the static \
             estimate, and boost injection probability on the top divergers.  The \
             reference outputs are unchanged (tracing is pure instrumentation), \
             so the fault-off identity check still holds.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault-injection campaign: N trials per model under randomized \
          fault plans, each executed by the recovery-aware interpreter and compared \
          against a fault-free reference run.  Injection-free trials must match the \
          reference bit-for-bit (exit 2 otherwise).")
    Term.(
      const run $ models $ trials $ seed $ l_max_arg $ dim $ rate $ no_retries $ from_trace
      $ json_path $ min_recovery $ flight_arg)

(* --- serve ------------------------------------------------------------------------ *)

let serve_cmd =
  let run model l_max dim seed arrival_rate duration slo_ms max_batch chaos_rate json_path
      min_goodput min_attainment with_flight =
    with_flight @@ fun _ ->
    ignore (or_die (resolve_model model));
    let seed =
      match Int64.of_string_opt seed with
      | Some s -> s
      | None -> or_die (Error (`Msg (Printf.sprintf "bad seed %S" seed)))
    in
    let cfg =
      {
        Serving.Scheduler.seed;
        model;
        l_max;
        dim;
        arrival = Serving.Scheduler.Poisson arrival_rate;
        duration_ms = duration;
        slo_ms;
        max_batch;
        chaos_rate;
        recovery = Resilience.Recovery.default;
      }
    in
    let report = Serving.Scheduler.run cfg in
    let r = report in
    Format.printf
      "serve %s: %d arrivals -> %d admitted, %d completed, %d shed, %d failed@."
      r.Serving.Scheduler.model r.Serving.Scheduler.arrivals
      r.Serving.Scheduler.admitted r.Serving.Scheduler.completed
      r.Serving.Scheduler.shed r.Serving.Scheduler.failed;
    Format.printf
      "  batch: capacity %d, est %.2f ms, slo %.1f ms, max wait %.1f ms, mean fill \
       %.2f@."
      r.Serving.Scheduler.slot_capacity r.Serving.Scheduler.est_batch_ms
      r.Serving.Scheduler.slo_ms r.Serving.Scheduler.max_wait_ms
      r.Serving.Scheduler.mean_batch_fill;
    Format.printf
      "  service: goodput %.2f rps, attainment %.3f, p50 %.1f ms, p99 %.1f ms, queue \
       peak %d@."
      r.Serving.Scheduler.goodput_rps r.Serving.Scheduler.slo_attainment
      r.Serving.Scheduler.p50_service_ms r.Serving.Scheduler.p99_service_ms
      r.Serving.Scheduler.queue_depth_peak;
    Format.printf
      "  resilience: %d batches (%d re-dispatches), %d breaker opens, backoff %.1f ms \
       (%d capped)@."
      r.Serving.Scheduler.batches_run r.Serving.Scheduler.batch_retries
      r.Serving.Scheduler.breaker_opens
      r.Serving.Scheduler.recovery.Resilience.Recovery.backoff_ms_total
      r.Serving.Scheduler.recovery.Resilience.Recovery.capped_backoffs;
    List.iter
      (fun (reason, n) -> Format.printf "  shed %-16s %d@." reason n)
      r.Serving.Scheduler.shed_by_reason;
    List.iter
      (fun (cause, n) -> Format.printf "  failed %-14s %d@." cause n)
      r.Serving.Scheduler.failed_by_cause;
    (match json_path with
    | Some path ->
        write_json path (Serving.Scheduler.to_json report);
        Format.printf "wrote campaign report to %s@." path
    | None -> ());
    let breached = ref false in
    if r.Serving.Scheduler.goodput_rps < min_goodput then begin
      Format.eprintf "error: goodput %.2f rps below required %.2f@."
        r.Serving.Scheduler.goodput_rps min_goodput;
      breached := true
    end;
    if r.Serving.Scheduler.slo_attainment < min_attainment then begin
      Format.eprintf "error: SLO attainment %.3f below required %.3f@."
        r.Serving.Scheduler.slo_attainment min_attainment;
      breached := true
    end;
    if !breached then 2 else 0
  in
  let model =
    Arg.(
      value & opt string "tiny"
      & info [ "model" ] ~docv:"NAME" ~doc:"Model to serve.")
  in
  let dim =
    Arg.(
      value & opt int 16
      & info [ "dim" ] ~docv:"D" ~doc:"Slots per request payload.")
  in
  let seed =
    Arg.(
      value & opt string "0x5E17E"
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign master seed (decimal or 0x hex).  Arrivals, payloads, fault \
             plans, evaluator noise and the report are all deterministic in it.")
  in
  let arrival_rate =
    Arg.(
      value & opt float 40.0
      & info [ "arrival-rate" ] ~docv:"RPS"
          ~doc:"Mean Poisson arrival rate, requests per second (simulated).")
  in
  let duration =
    Arg.(
      value & opt float 1000.0
      & info [ "duration" ] ~docv:"MS" ~doc:"Arrival-window length (simulated ms).")
  in
  let slo_ms =
    Arg.(
      value & opt float 0.0
      & info [ "slo-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline after arrival; 0 derives 3x the fault-free \
             batch latency.")
  in
  let max_batch =
    Arg.(
      value & opt int 4
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Requests packed per batch (also capped by the slot count / dim).")
  in
  let chaos_rate =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-rate" ] ~docv:"P"
          ~doc:"Per-op fault-injection probability per dispatch (0 disables).")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the campaign report as JSON to $(docv) (byte-identical across \
             runs with the same seed and config).")
  in
  let min_goodput =
    Arg.(
      value & opt float 0.0
      & info [ "min-goodput" ] ~docv:"RPS"
          ~doc:"Exit with code 2 when goodput falls below $(docv).")
  in
  let min_attainment =
    Arg.(
      value & opt float 0.9
      & info [ "min-attainment" ] ~docv:"RATE"
          ~doc:
            "Exit with code 2 when SLO attainment (completed/admitted) falls below \
             $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a deterministic simulated serving campaign: a seeded Poisson arrival \
          trace through a bounded queue with per-request deadlines, slot-batched \
          execution under recovery supervision, load shedding, retry with capped \
          backoff, and a circuit breaker.  Exit 2 when the goodput or SLO-attainment \
          floor is breached.")
    Term.(
      const run $ model $ l_max_arg $ dim $ seed $ arrival_rate $ duration $ slo_ms
      $ max_batch $ chaos_rate $ json_path $ min_goodput $ min_attainment $ flight_arg)

(* --- health ----------------------------------------------------------------------- *)

let health_cmd =
  let run in_file json =
    let records, profile = load_flight in_file in
    let verdict = Obs.Health.evaluate ~records profile in
    if json then print_string (Obs.Json.to_string (Obs.Health.to_json verdict) ^ "\n")
    else Format.printf "%a@." Obs.Health.pp verdict;
    exit (Obs.Health.exit_code verdict)
  in
  let in_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "in" ] ~docv:"FILE"
          ~doc:
            "The flight file to judge, as written by $(b,--log-out); its records and \
             profile feed every rule.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the verdict as JSON.")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Evaluate rule-based health checks (noise headroom, chaos recovery rate, \
          SLO attainment, log anomalies, ring overflow) over a flight \
          file written by $(b,--log-out).  Exit 0 when healthy, 2 when any rule \
          fails.")
    Term.(const run $ in_file $ json)

let () =
  let info =
    Cmd.info "resbm" ~version:"1.0.0"
      ~doc:"Region-based scale and minimal-level bootstrapping management for RNS-CKKS."
  in
  let cmd =
    Cmd.group info
      [
        list_cmd;
        compile_cmd;
        run_cmd;
        trace_cmd;
        regions_cmd;
        sweep_cmd;
        export_cmd;
        lint_cmd;
        certify_cmd;
        bench_diff_cmd;
        explain_cmd;
        chaos_cmd;
        serve_cmd;
        health_cmd;
      ]
  in
  (* A planner dead-end is the input's fault (l_max too small for the
     model), so it reads as a usage error, exit 1 like [or_die]; every
     other escaping exception is a bug and keeps cmdliner's
     internal-error report and exit code. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Resbm.Btsmgr.No_plan msg ->
        Format.eprintf "error: %s@." msg;
        1
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Format.eprintf "resbm: @[<v>internal error, uncaught exception:@,%s@,%s@]@."
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error)
