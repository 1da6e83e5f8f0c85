open Fhe_ir

let hoist_target prm info g m =
  let n = Dfg.node g m in
  if n.Dfg.dead || n.Dfg.kind <> Op.Modswitch then None
  else begin
    let producer = n.Dfg.args.(0) in
    let p = Dfg.node g producer in
    let outs = Dfg.outputs g in
    if p.Dfg.users <> [ m ] || List.mem producer outs then None
    else begin
      let { Scale_check.level; scale_bits; _ } = info producer in
      let ok_levels target =
        (* Every ciphertext operand of [target] must have a level to
           spend, and multiplications must keep capacity at the lower
           level. *)
        level >= 1
        && Array.for_all
             (fun a ->
               (not (Op.produces_ct (Dfg.node g a).Dfg.kind))
               || (info a).Scale_check.level >= 1)
             (Dfg.node g target).Dfg.args
        && Ckks.Evaluator.capacity_ok prm ~scale_bits ~level:(level - 1)
      in
      match p.Dfg.kind with
      | Op.Rotate _ | Op.Add_cc | Op.Add_cp | Op.Mul_cp ->
          if ok_levels producer then Some producer else None
      | Op.Relin ->
          let mul = p.Dfg.args.(0) in
          let mn = Dfg.node g mul in
          if
            mn.Dfg.kind = Op.Mul_cc
            && mn.Dfg.users = [ producer ]
            && (not (List.mem mul outs))
            && ok_levels mul
          then Some mul
          else None
      | _ -> None
    end
  end

module Ids = Set.Make (Int)

type result = { hoists : int; info : Scale_check.info array; order : int array }

let run_from ~info:start ~order prm g =
  let n0 = Dfg.node_count g in
  let info = ref (Array.copy start) in
  let get id = !info.(id) in
  (* Each hoist appends modswitch nodes past the inferred array. *)
  let set id i =
    let len = Array.length !info in
    if id >= len then begin
      let grown = Array.make (max (id + 1) (2 * len)) i in
      Array.blit !info 0 grown 0 len;
      info := grown
    end;
    !info.(id) <- i
  in
  let lower id =
    let i = get id in
    { i with Scale_check.level = i.Scale_check.level - 1 }
  in
  (* The modswitches each hoist puts on its target's operands, newest
     first, by target id.  Targets are never modswitches, so they all
     predate the pass and sit in [order]. *)
  let before = Array.make n0 [] in
  let is_modswitch id = (Dfg.node g id).Dfg.kind = Op.Modswitch in
  let work =
    ref
      (Array.fold_left
         (fun s id -> if is_modswitch id then Ids.add id s else s)
         Ids.empty order)
  in
  let hoists = ref 0 in
  while not (Ids.is_empty !work) do
    let m = Ids.min_elt !work in
    work := Ids.remove m !work;
    match hoist_target prm get g m with
    | None -> ()
    | Some target ->
        (* Delete [m] and re-insert modswitches on the ciphertext operands
           of [target] (the producer itself, or the mul_cc under a
           relin).  Only the new modswitches, [target] and the relin
           change level; every downstream node reads the producer at the
           level it read [m] at. *)
        let producer = (Dfg.node g m).Dfg.args.(0) in
        Array.iteri
          (fun i a ->
            if Op.produces_ct (Dfg.node g a).Dfg.kind then begin
              let w = Dfg.wrap_operand g ~user:target ~arg_index:i Op.Modswitch in
              set w (lower a);
              before.(target) <- w :: before.(target);
              work := Ids.add w !work
            end)
          (Dfg.node g target).Dfg.args;
        set target (lower target);
        if producer <> target then set producer (lower producer);
        Dfg.replace_uses g ~old_id:m ~new_id:producer;
        Dfg.kill g m;
        set m Scale_check.dummy;
        (* A modswitch reading [m] now reads a single-use producer. *)
        List.iter
          (fun u -> if is_modswitch u then work := Ids.add u !work)
          (Dfg.node g producer).Dfg.users;
        incr hoists
  done;
  (* Splice: each new modswitch just before its target, oldest first (a
     later one reads an earlier one), the killed ones dropped.  A new
     modswitch reads a node its target read, so it stays after it. *)
  let n = Dfg.node_count g in
  let spliced = Array.make (Array.length order + n - n0) 0 and len = ref 0 in
  let emit id =
    if not (Dfg.node g id).Dfg.dead then begin
      spliced.(!len) <- id;
      incr len
    end
  in
  Array.iter
    (fun id ->
      List.iter emit (List.rev before.(id));
      emit id)
    order;
  {
    hoists = !hoists;
    info = (if Array.length !info = n then !info else Array.sub !info 0 n);
    order = (if !len = Array.length spliced then spliced else Array.sub spliced 0 !len);
  }

let run ?order prm g =
  let order =
    match order with Some o -> o | None -> Array.of_list (Dfg.topo_order g)
  in
  (run_from ~info:(Scale_check.infer ~order prm g) ~order prm g).hoists
