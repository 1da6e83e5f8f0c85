open Fhe_ir

type regions = { region_of : int array; count : int }

let span name f = Obs.span ("verify." ^ name) f

let wellformed g =
  span "wellformed" @@ fun () ->
  match Dfg.validate g with
  | Ok () -> []
  | Error msgs -> List.map (fun m -> Diag.error "wellformed" "%s" m) msgs

(* Runs only on well-formed graphs, so every id it reads indexes [pos]. *)
let topo g =
  span "topo" @@ fun () ->
  let pos = Array.make (Dfg.node_count g) (-1) in
  let ds = ref [] in
  List.iteri
    (fun i id ->
      if pos.(id) >= 0 then
        ds := Diag.error ~node:id "topo" "node appears twice in the topological order" :: !ds;
      if (Dfg.node g id).Dfg.dead then
        ds := Diag.error ~node:id "topo" "dead node in the topological order" :: !ds;
      pos.(id) <- i)
    (Dfg.topo_order g);
  List.iter
    (fun n ->
      let p = pos.(n.Dfg.id) in
      if p < 0 then
        ds :=
          Diag.error ~node:n.Dfg.id "topo" "live node missing from the topological order"
          :: !ds
      else
        Array.iter
          (fun a ->
            let pa = pos.(a) in
            if pa < 0 || pa >= p then
              ds :=
                Diag.error ~node:n.Dfg.id "topo"
                  "argument %d does not precede its user in the topological order" a
                :: !ds)
          n.Dfg.args)
    (Dfg.live_nodes g);
  List.rev !ds

let contains s sub =
  let ls = String.length sub and ln = String.length s in
  let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* Strict Table 1 propagation.  Bootstrap-range violations are dropped
   here: they are re-reported under the dedicated "bootstrap-target" rule
   below, which also runs on pre-management graphs. *)
let scale_rules prm g =
  span "scale" @@ fun () ->
  let info, violations = Scale_check.analyse ~strict:true prm g in
  let ds =
    List.filter_map
      (fun v ->
        if contains v.Scale_check.message "bootstrap target" then None
        else Some (Diag.error ~node:v.Scale_check.node "scale" "%s" v.Scale_check.message))
      violations
  in
  (info, ds)

let waterline prm info g =
  span "waterline" @@ fun () ->
  let qw = prm.Ckks.Params.waterline_bits in
  List.filter_map
    (fun n ->
      let i = info.(n.Dfg.id) in
      if i.Scale_check.is_ct && i.Scale_check.scale_bits < qw then
        Some
          (Diag.warning ~node:n.Dfg.id "waterline"
             "ciphertext scale 2^%d is below the waterline 2^%d" i.Scale_check.scale_bits qw)
      else None)
    (Dfg.live_nodes g)

let bootstrap_target prm g =
  span "bootstrap-target" @@ fun () ->
  List.filter_map
    (fun n ->
      match n.Dfg.kind with
      | Op.Bootstrap t when t < 1 || t > prm.Ckks.Params.l_max ->
          Some
            (Diag.error ~node:n.Dfg.id "bootstrap-target"
               "bootstrap target level %d outside [1, %d]" t prm.Ckks.Params.l_max)
      | _ -> None)
    (Dfg.live_nodes g)

let region_rules { region_of; count } g =
  span "regions" @@ fun () ->
  let known id = id >= 0 && id < Array.length region_of in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iter
    (fun n ->
      let id = n.Dfg.id in
      if known id then begin
        let r = region_of.(id) in
        if r < 0 || r >= count then
          add
            (Diag.error ~node:id "region-cover"
               "region index %d outside the %d-region sequence" r count);
        (match n.Dfg.kind with
        | k when Op.is_smo k ->
            add
              (Diag.error ~node:id "region-smo-boundary"
                 "%s present before planning: SMOs are introduced only by the plan, once \
                  per region boundary (RMR)"
                 (Op.name k))
        | Op.Bootstrap _ ->
            add
              (Diag.error ~node:id "region-smo-boundary"
                 "bootstrap present before planning: bootstraps are introduced only by the \
                  plan at region boundaries")
        | _ -> ());
        Array.iter
          (fun a ->
            if known a then begin
              if region_of.(a) > r then
                add
                  (Diag.error ~node:id "region-monotone"
                     "argument %d lives in region %d, after its user's region %d" a
                     region_of.(a) r);
              if Op.is_mul n.Dfg.kind && region_of.(a) >= r then
                add
                  (Diag.error ~node:id "region-mul-anchor"
                     "multiplication consumes operand %d from its own region %d \
                      (multiplications open a region: operands must come from earlier \
                      regions)"
                     a r)
            end)
          n.Dfg.args
      end)
    (Dfg.live_nodes g);
  List.rev !ds

let run ?regions ?(scale = true) prm g =
  let wf = wellformed g in
  let structural_ok = not (Diag.has_errors wf) in
  let topo_ds = if structural_ok then topo g else [] in
  let region_ds =
    match regions with Some r when structural_ok -> region_rules r g | _ -> []
  in
  let target_ds = if structural_ok then bootstrap_target prm g else [] in
  let scale_ds =
    if scale && structural_ok then begin
      let info, ds = scale_rules prm g in
      ds @ waterline prm info g
    end
    else []
  in
  Diag.sort (wf @ topo_ds @ region_ds @ target_ds @ scale_ds)
