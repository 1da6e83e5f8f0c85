type report = {
  total_ciphertexts : int;
  peak_live : int;
  peak_bytes : float;
  final_live : int;
}

let[@inline] ciphertext_bytes prm ~level =
  let n = float_of_int (1 lsl prm.Ckks.Params.log2_degree) in
  2.0 *. float_of_int (level + 1) *. n *. 8.0

type schedule = {
  order : int array;
  order_index : int array;
  last_use : int array;
  is_output : bool array;
}

let schedule ?order g =
  let n = Dfg.node_count g in
  let order =
    match order with Some o -> o | None -> Array.of_list (Dfg.topo_order g)
  in
  let order_index = Array.make n (-1) in
  Array.iteri (fun i id -> order_index.(id) <- i) order;
  (* Walking [order] forwards, a plain overwrite leaves each value's
     maximum user position — its last use.  Outputs stay live forever. *)
  let last_use = Array.make n (-1) in
  Array.iteri
    (fun pos id -> Array.iter (fun a -> last_use.(a) <- pos) (Dfg.node g id).Dfg.args)
    order;
  let is_output = Array.make n false in
  List.iter
    (fun o ->
      is_output.(o) <- true;
      last_use.(o) <- max_int)
    (Dfg.outputs g);
  { order; order_index; last_use; is_output }

let live_at sched ~at id = sched.is_output.(id) || sched.last_use.(id) >= at

let analyse ?info ?sched prm g =
  let info = match info with Some i -> i | None -> Scale_check.infer prm g in
  let sched = match sched with Some s -> s | None -> schedule g in
  let bytes_of id = ciphertext_bytes prm ~level:(max info.(id).Scale_check.level 0) in
  (* One byte per node id marks the ciphertexts live at the current
     position; a value is freed once, at the first of its occurrences in
     the args of its last user. *)
  let live = Bytes.make (Dfg.node_count g) '\000' in
  let live_bytes = ref 0.0 and live_count = ref 0 in
  let peak_live = ref 0 and peak_bytes = ref 0.0 and total = ref 0 in
  for pos = 0 to Array.length sched.order - 1 do
    let id = sched.order.(pos) in
    let node = Dfg.node g id in
    if Op.produces_ct node.Dfg.kind then begin
      incr total;
      Bytes.set live id '\001';
      live_bytes := !live_bytes +. bytes_of id;
      incr live_count;
      if !live_count > !peak_live then peak_live := !live_count;
      if !live_bytes > !peak_bytes then peak_bytes := !live_bytes
    end;
    (* free operands at their last use *)
    let args = node.Dfg.args in
    for k = 0 to Array.length args - 1 do
      let a = args.(k) in
      if sched.last_use.(a) = pos && Bytes.get live a = '\001' then begin
        Bytes.set live a '\000';
        live_bytes := !live_bytes -. bytes_of a;
        decr live_count
      end
    done
  done;
  {
    total_ciphertexts = !total;
    peak_live = !peak_live;
    peak_bytes = !peak_bytes;
    final_live = !live_count;
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<h>%d ciphertexts allocated, peak %d live (%.1f MiB working set), %d at exit@]"
    r.total_ciphertexts r.peak_live
    (r.peak_bytes /. 1024.0 /. 1024.0)
    r.final_live
