type info = { magnitude : float; noise : float }

type report = {
  per_node : info array;
  output_noise : float;
  output_precision_bits : float;
}

let rms2 a b = sqrt ((a *. a) +. (b *. b))
let pow2 bits = 2.0 ** bits

let analyse ?(input_magnitude = 1.0) ?(magnitude_cap = 1.0)
    ?(const_magnitude = fun _ -> 1.0) ?scales ?order prm g =
  let scales = match scales with Some s -> s | None -> Scale_check.infer prm g in
  let cap m = Float.min m magnitude_cap in
  let per_node = Array.make (Dfg.node_count g) { magnitude = 0.0; noise = 0.0 } in
  let in_order f =
    match order with Some o -> Array.iter f o | None -> List.iter f (Dfg.topo_order g)
  in
  in_order
    (fun id ->
      let node = Dfg.node g id in
      let arg i = per_node.(node.Dfg.args.(i)) in
      let scale_bits id = float_of_int scales.(id).Scale_check.scale_bits in
      let fresh = pow2 (Ckks.Evaluator.fresh_noise_bits -. scale_bits id) in
      let v =
        match node.Dfg.kind with
        | Op.Input _ -> { magnitude = input_magnitude; noise = fresh }
        | Op.Const { name } ->
            (* encoding quantisation only *)
            { magnitude = const_magnitude name; noise = pow2 (-.scale_bits id) }
        | Op.Add_cc | Op.Add_cp ->
            let a = arg 0 and b = arg 1 in
            { magnitude = cap (a.magnitude +. b.magnitude); noise = rms2 a.noise b.noise }
        | Op.Mul_cc | Op.Mul_cp ->
            let a = arg 0 and b = arg 1 in
            {
              magnitude = cap (a.magnitude *. b.magnitude);
              noise =
                rms2 (rms2 (a.magnitude *. b.noise) (b.magnitude *. a.noise)) fresh;
            }
        | Op.Rotate _ | Op.Relin ->
            let a = arg 0 in
            let extra = pow2 (Ckks.Evaluator.rotate_noise_bits -. scale_bits id) in
            { a with noise = rms2 a.noise extra }
        | Op.Rescale ->
            let a = arg 0 in
            { a with noise = rms2 a.noise fresh }
        | Op.Modswitch -> arg 0
        | Op.Bootstrap _ ->
            let a = arg 0 in
            let extra = pow2 (-.Ckks.Evaluator.bootstrap_precision_bits) in
            { a with noise = rms2 a.noise extra }
      in
      per_node.(id) <- v);
  let output_noise =
    List.fold_left (fun acc o -> Float.max acc per_node.(o).noise) 0.0 (Dfg.outputs g)
  in
  {
    per_node;
    output_noise;
    output_precision_bits =
      (if output_noise > 0.0 then -.Float.log2 output_noise else Float.infinity);
  }

let predicts report ~measured =
  measured <= report.output_noise *. 100.0

type trace_mismatch = {
  node : int;
  op : string;
  traced_bits : float;
  predicted_bits : float;
}

let pp_trace_mismatch ppf m =
  Format.fprintf ppf "node %d (%s): traced headroom %.1f bits, predicted %.1f bits"
    m.node m.op m.traced_bits m.predicted_bits

(* Cross-validate a flight recording against the static estimate: an op
   event whose measured noise exceeds the per-node prediction by more than
   [tolerance_bits] means the static model no longer tracks the evaluator
   (or the plan ran the program outside the analysed magnitude domain).
   The static analysis is an estimate, not a bound, so the default
   tolerance mirrors [predicts]'s two orders of magnitude. *)
let check_trace ?(tolerance_bits = 10.0) report events =
  List.filter_map
    (fun (e : Obs.Trace.op_event) ->
      if e.Obs.Trace.node < 0 || e.Obs.Trace.node >= Array.length report.per_node then
        None
      else begin
        let predicted = report.per_node.(e.Obs.Trace.node).noise in
        let traced = e.Obs.Trace.noise_after in
        if predicted > 0.0 && traced > predicted *. (2.0 ** tolerance_bits) then
          Some
            {
              node = e.Obs.Trace.node;
              op = e.Obs.Trace.op;
              traced_bits = Obs.Trace.headroom_bits traced;
              predicted_bits = Obs.Trace.headroom_bits predicted;
            }
        else None
      end)
    events

(* Rank nodes by how hot the recorded noise ran against the static
   estimate: the worst traced/predicted ratio seen per node, largest
   first.  Unlike [check_trace] this applies no tolerance — a clean run
   still yields a ranking, pointing fault campaigns at the nodes with the
   least validated headroom. *)
let trace_hotspots ?(top = 16) report events =
  let tbl : (int, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Obs.Trace.op_event) ->
      if e.Obs.Trace.node >= 0 && e.Obs.Trace.node < Array.length report.per_node
      then
        let predicted = report.per_node.(e.Obs.Trace.node).noise in
        if predicted > 0.0 && e.Obs.Trace.noise_after > 0.0 then
          let ratio = e.Obs.Trace.noise_after /. predicted in
          match Hashtbl.find_opt tbl e.Obs.Trace.node with
          | Some prev when prev >= ratio -> ()
          | _ -> Hashtbl.replace tbl e.Obs.Trace.node ratio)
    events;
  let ranked =
    List.sort
      (fun (n1, r1) (n2, r2) ->
        if r1 <> r2 then compare (r2 : float) r1 else compare (n1 : int) n2)
      (Hashtbl.fold (fun n r acc -> (n, r) :: acc) tbl [] (* det-ok: sorted *))
  in
  List.filteri (fun i _ -> i < top) ranked

