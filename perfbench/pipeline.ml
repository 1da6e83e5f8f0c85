(* Driver.compile's pipeline called layer by layer through the public
   functions, in Driver.compile's order: region build, plan, apply,
   optional Ms_opt, latency, stats.  Each call goes through [w], which the
   traced run turns into spans; the result must reproduce
   Resbm.Variants.compile exactly. *)

type result = {
  managed : Fhe_ir.Dfg.t;
  latency_ms : float;
  stats : Fhe_ir.Stats.t;
  hoists : int;
  certificates : int;  (** Min-cut certificates the plan carries. *)
  profile : Obs.Profile.t;  (** Work counters the layers emitted. *)
}

let certificate_count (plan : Resbm.Btsmgr.plan) =
  Array.fold_left
    (fun n (a : Resbm.Btsmgr.region_action) ->
      let smo =
        match a.Resbm.Btsmgr.smo_cut with Some { Resbm.Cut.cert = Some _; _ } -> 1 | _ -> 0
      in
      let bts =
        match a.Resbm.Btsmgr.bts with
        | Some { Resbm.Btsmgr.cut = Some { Resbm.Cut.cert = Some _; _ }; _ } -> 1
        | _ -> 0
      in
      n + smo + bts)
    0 plan.Resbm.Btsmgr.actions

let compile (w : Spans.wrap) (mgr : Resbm.Variants.manager) prm g =
  let profile = Obs.Profile.create () in
  Obs.with_profile profile @@ fun () ->
  let regioned = w.wrap "region_build" (fun () -> Resbm.Region.build g) in
  Obs.incr ~by:regioned.Resbm.Region.count "driver.regions";
  let plan =
    w.wrap "plan" (fun () ->
        Resbm.Btsmgr.plan ~config:mgr.Resbm.Variants.config ~jobs:1 regioned prm)
  in
  let outcome = w.wrap "apply" (fun () -> Resbm.Plan.apply regioned prm plan) in
  let managed = outcome.Resbm.Plan.dfg in
  let hoists =
    if mgr.Resbm.Variants.ms_opt then w.wrap "ms_opt" (fun () -> Passes.Ms_opt.run prm managed)
    else 0
  in
  let latency_ms =
    w.wrap "latency" (fun () ->
        let info =
          if hoists > 0 then Fhe_ir.Scale_check.infer prm managed
          else outcome.Resbm.Plan.final_info
        in
        Fhe_ir.Latency.total ~info prm managed)
  in
  let stats = w.wrap "stats" (fun () -> Fhe_ir.Stats.collect managed) in
  {
    managed;
    latency_ms;
    stats;
    hoists;
    certificates = certificate_count plan;
    profile;
  }

(* --- Traced run ------------------------------------------------------------------ *)

(* Driver.compile's layers as the traced run's spans name them. *)
let layers = [ "region_build"; "plan"; "apply"; "ms_opt"; "latency"; "stats" ]

(* Figures shared by both traced runs: the compile layers from the spans,
   the work counters from the first pass's decomposed compiles ([firsts]:
   item, result, input graph), and the tracing cost against the untraced
   compiles' samples. *)
let compile_layers spans s (firsts : (string * result * Fhe_ir.Dfg.t) list) =
  let sumi f = float_of_int (List.fold_left (fun a x -> a + f x) 0 firsts) in
  let counter name = sumi (fun (_, r, _) -> Obs.Profile.counter r.profile name) in
  let items = List.map (fun (item, _, _) -> item) firsts in
  let per_item f =
    List.fold_left (fun a item -> a +. (1000.0 *. f ("untraced:" ^ item))) 0.0 items
  in
  List.map (fun l -> (l ^ ".ms", Spans.host_ms spans l)) layers
  @ List.map
      (fun l -> (l ^ ".minor_mw", Spans.first_minor_mw spans l))
      [ "region_build"; "plan"; "apply"; "ms_opt" ]
  @ List.map
      (fun c -> (c, counter c))
      [
        "btsmgr.segment_evals"; "btsmgr.candidates"; "scalemgr.plans"; "region_eval.computes";
        "smoplc.cuts"; "btsplc.cuts"; "maxflow.runs"; "maxflow.aug_paths";
        "maxflow.bfs_phases"; "driver.regions";
      ]
  @ [
      ( "plan.cut_yield",
        sumi (fun (_, r, _) -> r.certificates) /. Float.max 1.0 (counter "maxflow.runs") );
      ("ms_opt.hoists", sumi (fun (_, r, _) -> r.hoists));
      ("ir.nodes_in", sumi (fun (_, _, g) -> List.length (Fhe_ir.Dfg.live_nodes g)));
      ("ir.nodes_managed", sumi (fun (_, r, _) -> r.stats.Fhe_ir.Stats.nodes));
      ("plan.bootstraps", sumi (fun (_, r, _) -> r.stats.Fhe_ir.Stats.bootstrap_count));
      ("plan.rescales", sumi (fun (_, r, _) -> r.stats.Fhe_ir.Stats.executed_rescales));
      ("compile.p50_ms", per_item (fun k -> Common.raw_quantile s k 0.5));
      ("compile.tail_ms", per_item (fun k -> Common.raw_quantile s k 0.9));
      ("trace.coverage", Spans.min_coverage spans "compile");
      ("trace.overhead", (Spans.host_ms spans "compile" /. per_item (Common.host s)) -. 1.0);
    ]

(* One item's compile, untraced then traced or the other way round
   (alternating between passes so neither side always runs warm).  The
   decomposed pipeline must reproduce the untraced result. *)
let compile_both spans s ~flip ~item ~untraced ~traced =
  let run_untraced () = Common.measure s ("untraced:" ^ item) untraced in
  let run_traced () =
    Spans.probe spans;
    let w = Spans.recorder spans ~item in
    w.Spans.wrap "compile" (fun () -> traced w)
  in
  if flip then
    let d = run_traced () in
    (run_untraced (), d)
  else
    let r = run_untraced () in
    (r, run_traced ())

let coverage_floor = 0.95

let check_trace t spans =
  let worst = Spans.min_coverage spans "compile" in
  Common.check t (worst >= coverage_floor)
    (Printf.sprintf "trace: layer spans cover %.3f of a compile span, below %.2f" worst
       coverage_floor)

(* What a plan must repeat exactly: across passes, and between the
   decomposed pipeline and Variants.compile. *)
type key = {
  k_latency : float;
  k_bootstraps : int;
  k_rescales : int;
  k_nodes : int;
  k_hoists : int;
}

let key_of ~latency_ms ~(stats : Fhe_ir.Stats.t) ~hoists =
  {
    k_latency = latency_ms;
    k_bootstraps = stats.Fhe_ir.Stats.bootstrap_count;
    k_rescales = stats.Fhe_ir.Stats.executed_rescales;
    k_nodes = stats.Fhe_ir.Stats.nodes;
    k_hoists = hoists;
  }

let report_key (r : Resbm.Report.t) =
  key_of ~latency_ms:r.Resbm.Report.latency_ms ~stats:r.Resbm.Report.stats
    ~hoists:r.Resbm.Report.ms_opt_hoists

let result_key r = key_of ~latency_ms:r.latency_ms ~stats:r.stats ~hoists:r.hoists

(* Every checked output must reach this precision; every plan measures
   25-30 bits today. *)
let precision_floor_bits = 20.0

(* Precision of [got] against the plaintext reference [want] over the
   first [n] slots: -log2 of the worst absolute error. *)
let precision_bits ~n ?(want_off = 0) got want =
  let err = ref 0.0 in
  for c = 0 to n - 1 do
    err := Float.max !err (Float.abs (got.(c) -. want.(want_off + c)))
  done;
  if !err = 0.0 then 64.0 else -.Float.log2 !err
