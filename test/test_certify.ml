(* Certified plans: adversarial checks on the min-cut optimality
   certificates, the level and noise checks behind [resbm certify], the
   shared liveness schedule, and the retry-less chaos mode.

   The corruption tests are the point of the certificate design: a
   checker that only re-runs the planner would agree with any planner
   bug, so instead we hand [Analysis.Certify] certificates with
   deliberately falsified flows, values and cut sides and require a
   refutation naming the violated LP-duality condition. *)

open Test_util

let prm = Ckks.Params.default

module MF = Graphlib.Maxflow

let rules ds = List.map (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.rule) ds
let has_rule r ds = List.mem r (rules ds)

(* s=0 -> {1,2} -> t=3; max flow 4, min cut {0,1} of value 4. *)
let diamond () =
  let net = MF.create 4 in
  MF.add_edge net ~src:0 ~dst:1 ~cap:3.0;
  MF.add_edge net ~src:0 ~dst:2 ~cap:2.0;
  MF.add_edge net ~src:1 ~dst:3 ~cap:2.0;
  MF.add_edge net ~src:2 ~dst:3 ~cap:3.0;
  let cut = MF.min_cut net ~source:0 ~sink:3 in
  (cut, MF.certificate net ~source:0 ~sink:3 cut)

(* A structurally-shared copy with fresh arrays, safe to corrupt. *)
let copy (c : MF.certificate) =
  {
    c with
    MF.cert_source_side = Array.copy c.MF.cert_source_side;
    MF.cert_arcs = Array.copy c.MF.cert_arcs;
  }

let cert_roundtrip () =
  let cut, cert = diamond () in
  check_float ~eps:1e-9 "diamond min cut" 4.0 cut.MF.value;
  let ds = Analysis.Certify.check ~pass:"test" ~value:cut.MF.value cert in
  checkb "clean certificate accepted" true (Analysis.Certify.ok ds);
  checki "no refutations at all" 0 (List.length ds)

let cert_roundtrip_reverse_closed () =
  (* The planner idiom: every finite arc gets an infinite reverse
     companion so the source side is closed under predecessors. *)
  let net = MF.create 4 in
  List.iter
    (fun (u, v, c) -> Resbm.Maxflow_util.add_with_reverse net ~src:u ~dst:v ~cap:c)
    [ (0, 1, 3.0); (0, 2, 2.0); (1, 3, 2.0); (2, 3, 3.0) ];
  let cut = MF.min_cut net ~source:0 ~sink:3 in
  let cert = MF.certificate net ~source:0 ~sink:3 cut in
  checkb "reverse-closed certificate accepted" true
    (Analysis.Certify.ok (Analysis.Certify.check ~value:cut.MF.value cert))

let cert_conservation_violation () =
  let _, cert = diamond () in
  let c = copy cert in
  (* Halve the flow on a saturated source arc: node 1 now emits more
     than it receives. *)
  let i =
    Option.get
      (Array.find_index
         (fun a -> a.MF.fa_src = 0 && a.MF.fa_dst = 1 && a.MF.fa_flow > 0.0)
         c.MF.cert_arcs)
  in
  c.MF.cert_arcs.(i) <-
    { (c.MF.cert_arcs.(i)) with MF.fa_flow = c.MF.cert_arcs.(i).MF.fa_flow /. 2.0 };
  let ds = Analysis.Certify.check c in
  checkb "corrupted flow refuted" false (Analysis.Certify.ok ds);
  checkb "conservation violation named" true (has_rule "cert-conservation" ds)

let cert_unsaturated_cut_edge () =
  let _, cert = diamond () in
  let c = copy cert in
  (* Drain a crossing arc: the cut is no longer saturated, so duality no
     longer proves anything. *)
  let i =
    Option.get
      (Array.find_index
         (fun a ->
           a.MF.fa_cap < infinity
           && c.MF.cert_source_side.(a.MF.fa_src)
           && not c.MF.cert_source_side.(a.MF.fa_dst))
         c.MF.cert_arcs)
  in
  c.MF.cert_arcs.(i) <- { (c.MF.cert_arcs.(i)) with MF.fa_flow = 0.0 };
  let ds = Analysis.Certify.check c in
  checkb "drained cut edge refuted" false (Analysis.Certify.ok ds);
  checkb "unsaturated crossing arc named" true (has_rule "cert-unsaturated" ds)

let cert_inflated_value () =
  let _, cert = diamond () in
  let c = { (copy cert) with MF.cert_value = cert.MF.cert_value +. 1.0 } in
  let ds = Analysis.Certify.check c in
  checkb "inflated value refuted" false (Analysis.Certify.ok ds);
  checkb "flow-value equality violated" true (has_rule "cert-flow-value" ds);
  checkb "duality equality violated" true (has_rule "cert-duality" ds)

let cert_non_minimal_cut () =
  (* 0 -1-> 1 -5-> 2: the only min cut is {0} (value 1).  Claim the
     {0,1} cut (value 5) instead: the flow is real and feasible, but the
     crossing arc is unsaturated — exactly the shape of a planner bug
     that picks a legal-but-suboptimal cut. *)
  let net = MF.create 3 in
  MF.add_edge net ~src:0 ~dst:1 ~cap:1.0;
  MF.add_edge net ~src:1 ~dst:2 ~cap:5.0;
  let cut = MF.min_cut net ~source:0 ~sink:2 in
  let cert = copy (MF.certificate net ~source:0 ~sink:2 cut) in
  cert.MF.cert_source_side.(1) <- true;
  let c = { cert with MF.cert_value = 5.0 } in
  let ds = Analysis.Certify.check c in
  checkb "non-minimal cut refuted" false (Analysis.Certify.ok ds);
  checkb "unsaturated crossing arc named" true (has_rule "cert-unsaturated" ds);
  checkb "claimed value exceeds the flow" true (has_rule "cert-flow-value" ds)

let cert_source_side_corrupted () =
  let _, cert = diamond () in
  let c = copy cert in
  c.MF.cert_source_side.(3) <- true;
  let ds = Analysis.Certify.check c in
  checkb "sink on source side refuted" false (Analysis.Certify.ok ds);
  checkb "terminal placement named" true (has_rule "cert-source-side" ds)

let cert_recorded_value_mismatch () =
  let cut, cert = diamond () in
  let ds = Analysis.Certify.check ~value:(cut.MF.value +. 0.5) cert in
  checkb "placement/certificate disagreement refuted" false (Analysis.Certify.ok ds);
  checkb "cross-check named" true (has_rule "cert-cut-value" ds)

(* Brute-force min cut (as in test_graphlib): enumerate subsets. *)
let brute_force_min_cut edges n ~source ~sink =
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl source) <> 0 && mask land (1 lsl sink) = 0 then begin
      let v =
        List.fold_left
          (fun acc (u, w, c) ->
            if mask land (1 lsl u) <> 0 && mask land (1 lsl w) = 0 then acc +. c else acc)
          0.0 edges
      in
      if v < !best then best := v
    end
  done;
  !best

let cert_accepts_random_cuts =
  qcheck ~count:80 "certify accepts every real min cut on random graphs"
    QCheck2.Gen.(pair (int_range 3 7) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Ckks.Prng.float rng < 0.45 then
            edges := (u, v, float_of_int (1 + Ckks.Prng.int rng ~bound:9)) :: !edges
        done
      done;
      let net = MF.create n in
      List.iter (fun (u, v, c) -> MF.add_edge net ~src:u ~dst:v ~cap:c) !edges;
      let cut = MF.min_cut net ~source:0 ~sink:(n - 1) in
      let cert = MF.certificate net ~source:0 ~sink:(n - 1) cut in
      let expect = brute_force_min_cut !edges n ~source:0 ~sink:(n - 1) in
      Analysis.Certify.ok (Analysis.Certify.check ~value:cut.MF.value cert)
      && Float.abs (cut.MF.value -. expect) < 1e-6)

let cert_accepts_planner_style_cuts =
  qcheck ~count:80 "certify accepts reverse-closed (planner-style) cuts"
    QCheck2.Gen.(pair (int_range 3 7) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      (* Forward DAG arcs only (u < v), each with the infinite reverse
         companion the placements add: max flow stays finite and the cut
         must be closed under predecessors. *)
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Ckks.Prng.float rng < 0.5 then
            edges := (u, v, float_of_int (1 + Ckks.Prng.int rng ~bound:9)) :: !edges
        done
      done;
      let net = MF.create n in
      List.iter
        (fun (u, v, c) -> Resbm.Maxflow_util.add_with_reverse net ~src:u ~dst:v ~cap:c)
        !edges;
      let cut = MF.min_cut net ~source:0 ~sink:(n - 1) in
      let cert = MF.certificate net ~source:0 ~sink:(n - 1) cut in
      let all_edges =
        !edges @ List.map (fun (u, v, _) -> (v, u, infinity)) !edges
      in
      let expect = brute_force_min_cut all_edges n ~source:0 ~sink:(n - 1) in
      Analysis.Certify.ok (Analysis.Certify.check ~value:cut.MF.value cert)
      && (cut.MF.value = infinity || Float.abs (cut.MF.value -. expect) < 1e-6))

(* --- Level, noise and liveness checks on real managed graphs ----------- *)

let managed_tiny =
  lazy
    (let lowered = Nn.Lowering.lower Nn.Model.tiny in
     Resbm.Driver.compile prm lowered.Nn.Lowering.dfg)

let absint_certifies_managed_tiny () =
  let managed, report = Lazy.force managed_tiny in
  List.iter
    (fun (group, ds) ->
      checkb (group ^ " has no refutation") false (Analysis.Diag.has_errors ds))
    (Resbm.Driver.certify_diags prm managed report)

(* Hand-built graphs the planner never emits: the level proof (the pass
   verifier) must refute them with the strict Table 1 rules, naming the
   violating nodes. *)
let level_errors g =
  List.filter
    (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.severity = Analysis.Diag.Error)
    (Analysis.Verify.run prm g)

let absint_capacity_overflow () =
  (* A level-0 product of two 2^q operands has scale 2^2q: no room. *)
  let g = Fhe_ir.Dfg.create () in
  let x = Fhe_ir.Dfg.input g ~level:0 "x" in
  let m = Fhe_ir.Dfg.mul_cc g x x in
  Fhe_ir.Dfg.set_outputs g [ m ];
  let mul = (Fhe_ir.Dfg.node g m).Fhe_ir.Dfg.args.(0) in
  let ds = level_errors g in
  checkb "capacity overflow refuted" true (ds <> []);
  checkb "only scale fires" true (List.for_all (( = ) "scale") (rules ds));
  checkb "every error names the mul_cc" true
    (List.for_all (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.node = Some mul) ds)

let absint_level_underflow () =
  let g = Fhe_ir.Dfg.create () in
  let x = Fhe_ir.Dfg.input g ~level:0 "x" in
  let r = Fhe_ir.Dfg.rescale g x and s = Fhe_ir.Dfg.modswitch g x in
  Fhe_ir.Dfg.set_outputs g [ r; s ];
  let ds = level_errors g in
  checkb "only scale fires" true (List.for_all (( = ) "scale") (rules ds));
  checkb "every error names an SMO" true
    (List.for_all
       (fun (d : Analysis.Diag.t) -> List.mem d.Analysis.Diag.node [ Some r; Some s ])
       ds);
  List.iter
    (fun id ->
      checkb
        (Printf.sprintf "SMO %d of a level-0 operand refuted" id)
        true
        (List.exists (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.node = Some id) ds))
    [ r; s ]

let absint_resnet20_noise_warnings () =
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let managed, report = Resbm.Driver.compile prm lowered.Nn.Lowering.dfg in
  let groups = Resbm.Driver.certify_diags prm managed report in
  List.iter
    (fun (group, ds) ->
      checkb (group ^ " has no error") false (Analysis.Diag.has_errors ds))
    groups;
  checkb "noise warnings are exactly overflow + precision" true
    (List.sort_uniq compare (rules (List.assoc "certify.noise" groups))
    = [ "absint-noise-overflow"; "absint-precision" ])

(* Def-use liveness, one fold in reverse topological order: the values
   (other than [id]'s own result) that node [id] or a transitive user of
   anything it feeds still needs.  Output persistence is not modelled,
   so these sets are a lower bound on any schedule-based live set. *)
module Int_set = Set.Make (Int)

let def_use_live_in g =
  let live_in = Array.make (Fhe_ir.Dfg.node_count g) Int_set.empty in
  List.iter
    (fun id ->
      let node = Fhe_ir.Dfg.node g id in
      let after =
        List.fold_left
          (fun acc u -> Int_set.union acc live_in.(u))
          Int_set.empty node.Fhe_ir.Dfg.users
      in
      let uses =
        Array.fold_left
          (fun acc a ->
            if Fhe_ir.Op.produces_ct (Fhe_ir.Dfg.node g a).Fhe_ir.Dfg.kind then
              Int_set.add a acc
            else acc)
          Int_set.empty node.Fhe_ir.Dfg.args
      in
      live_in.(id) <- Int_set.union uses (Int_set.remove id after))
    (List.rev (Fhe_ir.Dfg.topo_order g));
  live_in

let absint_liveness_below_schedule () =
  let managed, _ = Lazy.force managed_tiny in
  let live_in = def_use_live_in managed in
  let sched = Fhe_ir.Liveness.schedule managed in
  (* Def-use liveness is the declarative lower bound: anything it keeps
     alive before node [id] must be live at [id]'s schedule position. *)
  Array.iteri
    (fun id pos ->
      if pos >= 0 then
        Int_set.iter
          (fun v ->
            checkb
              (Printf.sprintf "value %d live before node %d" v id)
              true
              (Fhe_ir.Liveness.live_at sched ~at:pos v))
          live_in.(id))
    sched.Fhe_ir.Liveness.order_index

let liveness_schedule_basics () =
  let g = fig3_poly () in
  let sched = Fhe_ir.Liveness.schedule g in
  let n = Fhe_ir.Dfg.node_count g in
  checki "order covers the graph" n (Array.length sched.Fhe_ir.Liveness.order);
  Array.iteri
    (fun pos id -> checki "order_index inverts order" pos
        sched.Fhe_ir.Liveness.order_index.(id))
    sched.Fhe_ir.Liveness.order;
  (* The single output stays live forever; the input x (node 0) dies
     right after its last consumer's schedule position. *)
  let out = List.hd (Fhe_ir.Dfg.outputs g) in
  checkb "output live at the end" true
    (Fhe_ir.Liveness.live_at sched ~at:(n - 1) out);
  let last_consumer_pos =
    List.fold_left
      (fun acc u -> Int.max acc sched.Fhe_ir.Liveness.order_index.(u))
      (-1) (Fhe_ir.Dfg.succs g 0)
  in
  checki "x's last use is its last consumer's position" last_consumer_pos
    sched.Fhe_ir.Liveness.last_use.(0);
  checkb "x dead past its last consumer" false
    (Fhe_ir.Liveness.live_at sched ~at:(last_consumer_pos + 1) 0);
  checkb "x live at its last consumer" true
    (Fhe_ir.Liveness.live_at sched ~at:last_consumer_pos 0)

(* --- Retry-less chaos -------------------------------------------------- *)

let chaos_no_retries () =
  let cfg =
    { Resilience.Chaos.default with Resilience.Chaos.no_retries = true; trials = 12;
      rate = 0.3 }
  in
  let report = Resilience.Chaos.run cfg in
  List.iter
    (fun (m : Resilience.Chaos.model_summary) ->
      checki "no rollback retries" 0 m.Resilience.Chaos.total_retries;
      List.iter
        (fun (kind, _) -> check Alcotest.string "only noise spikes" "noise_spike" kind)
        m.Resilience.Chaos.faults_by_kind;
      checkb "faults were injected" true (m.Resilience.Chaos.injected_faults > 0);
      checkb "panic re-bootstrap path exercised" true
        (m.Resilience.Chaos.total_panic_refreshes > 0))
    report.Resilience.Chaos.models;
  (* Same seed, same campaign: the report stays byte-identical. *)
  let again = Resilience.Chaos.run cfg in
  check Alcotest.string "retry-less campaign is deterministic"
    (Obs.Json.to_string (Resilience.Chaos.to_json report))
    (Obs.Json.to_string (Resilience.Chaos.to_json again))

let suite =
  [
    case "certificate round-trip" cert_roundtrip;
    case "reverse-closed round-trip" cert_roundtrip_reverse_closed;
    case "conservation violation refuted" cert_conservation_violation;
    case "unsaturated cut edge refuted" cert_unsaturated_cut_edge;
    case "inflated value refuted" cert_inflated_value;
    case "non-minimal cut refuted" cert_non_minimal_cut;
    case "corrupted source side refuted" cert_source_side_corrupted;
    case "recorded value mismatch refuted" cert_recorded_value_mismatch;
    cert_accepts_random_cuts;
    cert_accepts_planner_style_cuts;
    case "certify_diags proves managed tiny" absint_certifies_managed_tiny;
    case "capacity overflow refuted" absint_capacity_overflow;
    case "level underflow refuted" absint_level_underflow;
    case "resnet20 noise warnings" absint_resnet20_noise_warnings;
    case "def-use liveness below the schedule" absint_liveness_below_schedule;
    case "liveness schedule basics" liveness_schedule_basics;
    case "chaos without retries" chaos_no_retries;
  ]
