(* Plan explainability: where the predicted milliseconds go, why each
   bootstrap landed where it did, and a renumbering-stable structural
   digest two plans can be diffed by.

   The graph-aware producers live here; all rendering (waterfall folding,
   JSON diffing, Perfetto overlays) is delegated to [Obs.Explain] so the
   same presentation serves future subsystems. *)

open Fhe_ir

(* --- canonical content labels -------------------------------------------- *)

(* FNV-1a ({!Fnv}), as in [Plan_cache] — but over the node's *content* rather than
   its id: label(n) = H(kind, freq, ordered labels of its arguments).
   Two nodes get the same label iff their entire upstream computations are
   structurally identical, so labels are invariant under node renumbering
   — the property every digest key below inherits.  ([Plan_cache]'s
   region hashes deliberately hash raw ids for speed; these labels are
   the slow-but-stable counterpart for cross-plan comparison.) *)
let kind_key (k : Op.kind) =
  match k with
  | Op.Input { name; level; scale_bits } ->
      Printf.sprintf "input:%s:%s:%s" name
        (match level with Some l -> string_of_int l | None -> "-")
        (match scale_bits with Some s -> string_of_int s | None -> "-")
  | Op.Const { name } -> "const:" ^ name
  | Op.Rotate k -> Printf.sprintf "rotate:%d" k
  | Op.Bootstrap t -> Printf.sprintf "bootstrap:%d" t
  | k -> Op.name k

let labels g =
  let labels = Array.make (Dfg.node_count g) 0L in
  List.iter
    (fun id ->
      let n = Dfg.node g id in
      let h = Fnv.mix_string Fnv.offset (kind_key n.Dfg.kind) in
      let h = Fnv.mix_int h n.Dfg.freq in
      let h =
        Array.fold_left (fun h a -> Fnv.mix_int64 h labels.(a)) h n.Dfg.args
      in
      labels.(id) <- h)
    (Dfg.topo_order g);
  labels

(* --- cost attribution ----------------------------------------------------- *)

let share_of info prm g kinds =
  List.fold_left
    (fun acc (n : Dfg.node) ->
      if List.exists (fun k -> k (n.Dfg.kind)) kinds then
        acc +. Latency.node_cost prm g info n.Dfg.id
      else acc)
    0.0 (Dfg.live_nodes g)

(* Waterfall buckets are coarse op kinds: attributing each rotation offset
   or bootstrap target its own bucket would shatter the hierarchy into
   hundreds of one-node rows. *)
let bucket_name (k : Op.kind) =
  match k with
  | Op.Input _ -> "input"
  | Op.Const _ -> "const"
  | Op.Rotate _ -> "rotate"
  | Op.Bootstrap _ -> "bootstrap"
  | k -> Op.name k

let attribution ?top prm ~(managed : Dfg.t) (report : Report.t) =
  let info = Scale_check.infer prm managed in
  let region_of id =
    if id < Array.length report.Report.region_of then report.Report.region_of.(id)
    else -1
  in
  let rows =
    List.filter_map
      (fun (n : Dfg.node) ->
        let cost = Latency.node_cost prm managed info n.Dfg.id in
        if cost = 0.0 then None
        else
          let r = region_of n.Dfg.id in
          Some
            {
              Obs.Explain.group =
                (if r < 0 then "(unattributed)" else Printf.sprintf "region %03d" r);
              bucket = bucket_name n.Dfg.kind;
              label = Printf.sprintf "%%%d %s" n.Dfg.id (Op.name n.Dfg.kind);
              cost;
            })
      (Dfg.live_nodes managed)
  in
  let is k n = n = k in
  let shares =
    [
      ("bootstrap", share_of info prm managed [ (function Op.Bootstrap _ -> true | _ -> false) ]);
      ("rescale", share_of info prm managed [ is Op.Rescale ]);
      ("modswitch", share_of info prm managed [ is Op.Modswitch ]);
    ]
  in
  let total = Latency.total ~info prm managed in
  Obs.Explain.waterfall ?top ~shares ~total rows

(* --- bootstrap rationale --------------------------------------------------- *)

type counterfactual = {
  cf_value : float;  (* next-best cut value; [infinity] = no alternative *)
  cf_delta : float;  (* cf_value - cut value: the cost of moving this bootstrap *)
  cf_anchors : int list;  (* next-best placement: insert-after nodes *)
}

type rationale = {
  ra_bootstrap : int;  (* managed-graph node id *)
  ra_anchor : int;  (* original-graph node the bootstrap hangs off; -1 unknown *)
  ra_region : int;
  ra_target : int;
  ra_cost_ms : float;
  ra_cut_value : float option;  (* the region's certified min-cut value *)
  ra_saturated : (int * int) list;  (* saturated crossing arcs, DFG ids (-1 = s/t) *)
  ra_counterfactual : counterfactual option;
  ra_note : string;
}

(* The insertion point recorded by [Plan.apply] is always reachable from a
   bootstrap by following first arguments through the management nodes it
   stacked on top (rescale tips, earlier bootstraps): the first id below
   the original node count is the cut tail / boundary producer the
   certificate talks about. *)
let anchor_of managed ~orig_nodes id =
  let rec go id hops =
    if id < orig_nodes || hops = 0 then id
    else
      let n = Dfg.node managed id in
      if Array.length n.Dfg.args = 0 then id else go n.Dfg.args.(0) (hops - 1)
  in
  go id (Dfg.node_count managed)

let crossing_arcs (cert : Graphlib.Maxflow.certificate) =
  Array.to_list cert.Graphlib.Maxflow.cert_arcs
  |> List.filter (fun (a : Graphlib.Maxflow.flow_arc) ->
         cert.Graphlib.Maxflow.cert_source_side.(a.Graphlib.Maxflow.fa_src)
         && not cert.Graphlib.Maxflow.cert_source_side.(a.Graphlib.Maxflow.fa_dst))

let node_of_flow (e : Report.certificate_entry) i =
  if i >= 0 && i < Array.length e.Report.ce_node_of then e.Report.ce_node_of.(i)
  else -1

(* The DFG node a crossing arc pins a bootstrap after: the arc tail for
   internal and live-out arcs, the boundary producer for source arcs. *)
let arc_anchor (e : Report.certificate_entry) (a : Graphlib.Maxflow.flow_arc) =
  if a.Graphlib.Maxflow.fa_src = e.Report.ce_cert.Graphlib.Maxflow.cert_source then
    node_of_flow e a.Graphlib.Maxflow.fa_dst
  else node_of_flow e a.Graphlib.Maxflow.fa_src

let counterfactual (e : Report.certificate_entry) ~anchor =
  let cert = e.Report.ce_cert in
  let mine = List.filter (fun a -> arc_anchor e a = anchor) (crossing_arcs cert) in
  if mine = [] then None
  else begin
    let forbid =
      List.map
        (fun (a : Graphlib.Maxflow.flow_arc) ->
          (a.Graphlib.Maxflow.fa_src, a.Graphlib.Maxflow.fa_dst))
        mine
    in
    let net = Graphlib.Maxflow.of_certificate ~forbid cert in
    let cut =
      Graphlib.Maxflow.min_cut net ~source:cert.Graphlib.Maxflow.cert_source
        ~sink:cert.Graphlib.Maxflow.cert_sink
    in
    let cf_anchors =
      List.filter_map
        (fun (u, v) ->
          let a =
            if u = cert.Graphlib.Maxflow.cert_source then node_of_flow e v
            else node_of_flow e u
          in
          if a < 0 || a = anchor then None else Some a)
        cut.Graphlib.Maxflow.edges
      |> List.sort_uniq compare
    in
    Some
      {
        cf_value = cut.Graphlib.Maxflow.value;
        cf_delta = cut.Graphlib.Maxflow.value -. cert.Graphlib.Maxflow.cert_value;
        cf_anchors;
      }
  end

let rationales prm ~orig_nodes ~(managed : Dfg.t) (report : Report.t) =
  let info = Scale_check.infer prm managed in
  (* anchor -> owning certificate entry, first region wins.  BTSPLC
     certificates take precedence; a bootstrap whose anchor only appears
     in an SMOPLC cut rides a rescale tip (the bts cut was degenerate), so
     the rescale min-cut is the evidence pinning it there. *)
  let by_anchor = Hashtbl.create 16 in
  List.iter
    (fun pass ->
      List.iter
        (fun e ->
          if e.Report.ce_pass = pass then
            List.iter
              (fun a ->
                let anchor = arc_anchor e a in
                if anchor >= 0 && not (Hashtbl.mem by_anchor anchor) then
                  Hashtbl.add by_anchor anchor e)
              (crossing_arcs e.Report.ce_cert))
        report.Report.certificates)
    [ "btsplc"; "smoplc" ];
  List.filter_map
    (fun (n : Dfg.node) ->
      match n.Dfg.kind with
      | Op.Bootstrap target ->
          let id = n.Dfg.id in
          let anchor =
            if Array.length n.Dfg.args > 0 then
              anchor_of managed ~orig_nodes n.Dfg.args.(0)
            else -1
          in
          let region_of_node =
            if id < Array.length report.Report.region_of then
              report.Report.region_of.(id)
            else -1
          in
          let cost = Latency.node_cost prm managed info id in
          let base =
            {
              ra_bootstrap = id;
              ra_anchor = anchor;
              ra_region = region_of_node;
              ra_target = target;
              ra_cost_ms = cost;
              ra_cut_value = None;
              ra_saturated = [];
              ra_counterfactual = None;
              ra_note = "";
            }
          in
          let r =
            match Hashtbl.find_opt by_anchor anchor with
            | Some e ->
                let saturated =
                  List.filter_map
                    (fun (a : Graphlib.Maxflow.flow_arc) ->
                      if arc_anchor e a = anchor then
                        Some
                          ( node_of_flow e a.Graphlib.Maxflow.fa_src,
                            node_of_flow e a.Graphlib.Maxflow.fa_dst )
                      else None)
                    (crossing_arcs e.Report.ce_cert)
                in
                {
                  base with
                  ra_region = e.Report.ce_region;
                  ra_cut_value = Some e.Report.ce_cert.Graphlib.Maxflow.cert_value;
                  ra_saturated = saturated;
                  ra_counterfactual = counterfactual e ~anchor;
                  ra_note =
                    (if e.Report.ce_pass = "btsplc" then "min-cut"
                     else "rides rescale min-cut");
                }
            | None ->
                {
                  base with
                  ra_note =
                    (if anchor < 0 then "synthetic (no original anchor)"
                     else "forced (region-end or level repair; no certificate)");
                }
          in
          Some r
      | _ -> None)
    (Dfg.live_nodes managed)

(* --- structural plan digest ------------------------------------------------ *)

(* Floats in the digest are planner outputs whose last few bits depend on
   summation order (which node renumbering permutes); the digest compares
   plans, not float pipelines, so round to a microsecond. *)
let round6 v =
  if Float.is_finite v then Float.round (v *. 1e6) /. 1e6 else v

let digest prm ~(managed : Dfg.t) (report : Report.t) =
  let open Obs.Json in
  let info = Scale_check.infer prm managed in
  let lbl = labels managed in
  let live = Dfg.live_nodes managed in
  let hist add ns =
    let t = Hashtbl.create 16 in
    List.iter
      (fun n ->
        let k = add n in
        Hashtbl.replace t k (1 + Option.value (Hashtbl.find_opt t k) ~default:0))
      ns;
    Obj
      (List.sort compare
         (List.map (fun (k, c) -> (string_of_int k, Int c)) (Det.sorted_bindings t)))
  in
  let region_of id =
    if id < Array.length report.Report.region_of then report.Report.region_of.(id)
    else -1
  in
  (* cut values by region index, for attachment to content-keyed regions *)
  let cut_values r =
    List.filter_map
      (fun e ->
        if e.Report.ce_region = r then
          Some
            ( e.Report.ce_pass ^ "_cut_ms",
              Float (round6 e.Report.ce_cert.Graphlib.Maxflow.cert_value) )
        else None)
      report.Report.certificates
  in
  let region_ids =
    List.sort_uniq compare (List.map (fun (n : Dfg.node) -> region_of n.Dfg.id) live)
  in
  let region_objs =
    List.map
      (fun r ->
        let members =
          List.filter (fun (n : Dfg.node) -> region_of n.Dfg.id = r) live
        in
        let member_labels =
          List.sort compare (List.map (fun (n : Dfg.node) -> lbl.(n.Dfg.id)) members)
        in
        let signature = Fnv.hex (List.fold_left Fnv.mix_int64 Fnv.offset member_labels) in
        let of_kind p = List.filter (fun (n : Dfg.node) -> p n.Dfg.kind) members in
        let sorted_labels ns =
          List.sort compare (List.map (fun (n : Dfg.node) -> Fnv.hex lbl.(n.Dfg.id)) ns)
        in
        let obj =
          Obj
            ([
               ("members", Int (List.length members));
               ( "level_hist",
                 hist
                   (fun (n : Dfg.node) -> info.(n.Dfg.id).Scale_check.level)
                   (List.filter
                      (fun (n : Dfg.node) -> info.(n.Dfg.id).Scale_check.is_ct)
                      members) );
               ( "scale_hist",
                 hist
                   (fun (n : Dfg.node) -> info.(n.Dfg.id).Scale_check.scale_bits)
                   (List.filter
                      (fun (n : Dfg.node) -> info.(n.Dfg.id).Scale_check.is_ct)
                      members) );
               ( "bootstraps",
                 List
                   (List.sort compare
                      (List.filter_map
                         (fun (n : Dfg.node) ->
                           match n.Dfg.kind with
                           | Op.Bootstrap t ->
                               Some
                                 (String
                                    (Printf.sprintf "%s->L%d" (Fnv.hex lbl.(n.Dfg.id)) t))
                           | _ -> None)
                         members)) );
               ( "rescales",
                 List
                   (List.map
                      (fun l -> String l)
                      (sorted_labels (of_kind (fun k -> k = Op.Rescale)))) );
               ( "modswitches",
                 Int (List.length (of_kind (fun k -> k = Op.Modswitch))) );
             ]
            @ cut_values r)
        in
        (signature, obj))
      region_ids
  in
  (* Content-keyed: identical plans produce identical keys regardless of
     region numbering.  Signature collisions (structurally identical
     regions) get a deterministic ordinal suffix. *)
  let region_objs =
    List.sort
      (fun (s1, o1) (s2, o2) ->
        match compare s1 s2 with 0 -> compare (to_string o1) (to_string o2) | c -> c)
      region_objs
  in
  let seen = Hashtbl.create 16 in
  let regions =
    List.map
      (fun (s, o) ->
        let k = Option.value (Hashtbl.find_opt seen s) ~default:0 in
        Hashtbl.replace seen s (k + 1);
        ((if k = 0 then s else Printf.sprintf "%s#%d" s k), o))
      region_objs
  in
  (* Per-node detail for every management node: level and scale at the
     exact placement point, keyed by content label. *)
  let mgmt = Hashtbl.create 32 in
  List.iter
    (fun (n : Dfg.node) ->
      match n.Dfg.kind with
      | Op.Bootstrap _ | Op.Rescale | Op.Modswitch ->
          let key = Fnv.hex lbl.(n.Dfg.id) in
          let v =
            List
              [
                String (Op.name n.Dfg.kind);
                Int info.(n.Dfg.id).Scale_check.level;
                Int info.(n.Dfg.id).Scale_check.scale_bits;
              ]
          in
          let count, _ = Option.value (Hashtbl.find_opt mgmt key) ~default:(0, v) in
          Hashtbl.replace mgmt key (count + 1, v)
      | _ -> ())
    live;
  let management =
    List.map (fun (k, (count, v)) -> (k, List [ v; Int count ])) (Det.sorted_bindings mgmt)
  in
  let stats = report.Report.stats in
  Obj
    [
      ( "headline",
        Obj
          [
            ("manager", String report.Report.manager);
            ("latency_ms", Float (round6 report.Report.latency_ms));
            ("bootstrap_count", Int stats.Fhe_ir.Stats.bootstrap_count);
            ("executed_rescales", Int stats.Fhe_ir.Stats.executed_rescales);
            ("executed_modswitches", Int stats.Fhe_ir.Stats.executed_modswitches);
            ("max_depth", Int stats.Fhe_ir.Stats.max_depth);
            ("nodes", Int stats.Fhe_ir.Stats.nodes);
            ("region_count", Int report.Report.region_count);
            ("repair_bootstraps", Int report.Report.repair_bootstraps);
            ("ms_opt_hoists", Int report.Report.ms_opt_hoists);
          ] );
      ("regions", Obj regions);
      ("management", Obj management);
    ]

(* --- rendering ------------------------------------------------------------- *)

let pp_node managed ppf id =
  if id < 0 then Format.fprintf ppf "(boundary)"
  else Format.fprintf ppf "%%%d %s" id (Op.name (Dfg.node managed id).Dfg.kind)

let pp_rationale managed ppf r =
  Format.fprintf ppf "@[<v2>%%%d bootstrap->L%d  region %d  %.3f ms  after %a  [%s]"
    r.ra_bootstrap r.ra_target r.ra_region r.ra_cost_ms (pp_node managed)
    r.ra_anchor r.ra_note;
  (match r.ra_cut_value with
  | Some v ->
      Format.fprintf ppf "@,cut value %.3f ms, %d saturated arc%s this placement" v
        (List.length r.ra_saturated)
        (if List.length r.ra_saturated = 1 then " pins" else "s pin")
  | None -> ());
  (match r.ra_counterfactual with
  | Some cf when cf.cf_value = infinity ->
      Format.fprintf ppf "@,forbidding this edge leaves no finite cut: placement is forced"
  | Some cf ->
      Format.fprintf ppf "@,moving this bootstrap costs +%.3f ms (next best: %a)"
        cf.cf_delta
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (pp_node managed))
        (if cf.cf_anchors = [] then [ -1 ] else cf.cf_anchors)
  | None -> ());
  Format.fprintf ppf "@]"

let rationale_to_json r =
  let open Obs.Json in
  Obj
    [
      ("bootstrap", Int r.ra_bootstrap);
      ("anchor", Int r.ra_anchor);
      ("region", Int r.ra_region);
      ("target_level", Int r.ra_target);
      ("cost_ms", Float r.ra_cost_ms);
      ("note", String r.ra_note);
      ( "cut_value_ms",
        match r.ra_cut_value with Some v -> Float v | None -> Null );
      ( "saturated_arcs",
        List (List.map (fun (u, v) -> List [ Int u; Int v ]) r.ra_saturated) );
      ( "counterfactual",
        match r.ra_counterfactual with
        | None -> Null
        | Some cf ->
            Obj
              [
                ( "value_ms",
                  if Float.is_finite cf.cf_value then Float cf.cf_value else Null );
                ( "delta_ms",
                  if Float.is_finite cf.cf_delta then Float cf.cf_delta else Null );
                ("forced", Bool (cf.cf_value = infinity));
                ("next_best", List (List.map (fun a -> Int a) cf.cf_anchors));
              ] );
    ]
