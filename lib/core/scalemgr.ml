let plans = Obs.Counter.make "scalemgr.plans"

type region_info = {
  entry_scale : int;
  peak_scale : int;
  out_scale : int;
  rescales : int;
}

type seq_plan = {
  infos : region_info array;
  rescaling : int list;
  lbts : int;
}

let scale_increment regioned prm ~region ~entry_scale =
  let cc = if Region.has_mul_cc regioned region then entry_scale else 0
  and cp = if Region.has_mul_cp regioned region then prm.Ckks.Params.waterline_bits else 0 in
  max cc cp

let step regioned prm ~region ~entry_scale =
  let q = prm.Ckks.Params.scale_bits and qw = prm.Ckks.Params.waterline_bits in
  let peak_scale = entry_scale + scale_increment regioned prm ~region ~entry_scale in
  (* Early rescaling: shed levels as soon as the scale is eligible. *)
  let out = ref peak_scale and k = ref 0 in
  while !out >= q + qw do
    out := !out - q;
    incr k
  done;
  { entry_scale; peak_scale; out_scale = !out; rescales = !k }

let next_entry_scale prm ~bts info =
  if bts then prm.Ckks.Params.scale_bits else info.out_scale

let plan regioned prm ~src ~dst ~src_entry_scale ~bts_at_src =
  if src < 0 || dst >= regioned.Region.count || src > dst then
    invalid_arg "Scalemgr.plan: bad sequence bounds";
  Obs.Counter.bump plans;
  let infos = Array.make (dst - src + 1) { entry_scale = 0; peak_scale = 0; out_scale = 0; rescales = 0 } in
  let rescaling = ref [] and lbts = ref 0 in
  let scale = ref src_entry_scale in
  for r = src to dst do
    let info = step regioned prm ~region:r ~entry_scale:!scale in
    if info.rescales > 0 then begin
      rescaling := r :: !rescaling;
      if r <> src then lbts := !lbts + info.rescales
    end;
    infos.(r - src) <- info;
    scale := next_entry_scale prm ~bts:(r = src && bts_at_src) info
  done;
  { infos; rescaling = List.rev !rescaling; lbts = !lbts }
