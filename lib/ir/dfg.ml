type node = {
  id : int;
  mutable kind : Op.kind;
  mutable args : int array;
  mutable users : int list;
  mutable freq : int;
  mutable dead : bool;
}

type t = { mutable nodes : node array; mutable len : int; mutable outs : int list }

let create () = { nodes = [||]; len = 0; outs = [] }

let node_count g = g.len

let node g id =
  if id < 0 || id >= g.len then invalid_arg (Printf.sprintf "Dfg.node: id %d" id);
  g.nodes.(id)

let live_nodes g =
  let acc = ref [] in
  for i = g.len - 1 downto 0 do
    if not g.nodes.(i).dead then acc := g.nodes.(i) :: !acc
  done;
  !acc

let outputs g = g.outs
let set_outputs g outs = g.outs <- outs

let push g n =
  if g.len >= Array.length g.nodes then begin
    let cap = max 16 (2 * Array.length g.nodes) in
    let nodes' = Array.make cap n in
    Array.blit g.nodes 0 nodes' 0 g.len;
    g.nodes <- nodes'
  end;
  g.nodes.(g.len) <- n;
  g.len <- g.len + 1

let add_user g arg id =
  let n = node g arg in
  if not (List.mem id n.users) then n.users <- id :: n.users

let remove_user g arg id =
  let n = node g arg in
  (* Only drop the use if no argument slot still references [arg]. *)
  let still_used = Array.exists (fun a -> a = arg) (node g id).args in
  if not still_used then n.users <- List.filter (fun u -> u <> id) n.users

let mk g ?(freq = 1) kind args =
  if freq < 1 then invalid_arg "Dfg: freq must be at least 1";
  Array.iter
    (fun a ->
      if a < 0 || a >= g.len then invalid_arg "Dfg: argument out of range";
      if (node g a).dead then invalid_arg "Dfg: argument is dead")
    args;
  let id = g.len in
  push g { id; kind; args; users = []; freq; dead = false };
  Array.iter (fun a -> add_user g a id) args;
  id

let is_ct g id = Op.produces_ct (node g id).kind

let check_ct g ~what id =
  if not (is_ct g id) then
    invalid_arg (Printf.sprintf "Dfg.%s: operand %d is a plaintext" what id)

let check_pt g ~what id =
  if is_ct g id then
    invalid_arg (Printf.sprintf "Dfg.%s: operand %d is a ciphertext" what id)

let input g ?level ?scale_bits name = mk g (Op.Input { name; level; scale_bits }) [||]
let const g name = mk g (Op.Const { name }) [||]

let add_cc g ?freq a b =
  check_ct g ~what:"add_cc" a;
  check_ct g ~what:"add_cc" b;
  mk g ?freq Op.Add_cc [| a; b |]

let add_cp g ?freq a b =
  check_ct g ~what:"add_cp" a;
  check_pt g ~what:"add_cp" b;
  mk g ?freq Op.Add_cp [| a; b |]

let mul_cc_raw g ?freq a b =
  check_ct g ~what:"mul_cc" a;
  check_ct g ~what:"mul_cc" b;
  mk g ?freq Op.Mul_cc [| a; b |]

let relin g ?freq a =
  check_ct g ~what:"relin" a;
  mk g ?freq Op.Relin [| a |]

let mul_cc g ?freq a b =
  let m = mul_cc_raw g ?freq a b in
  relin g ?freq m

let mul_cp g ?freq a b =
  check_ct g ~what:"mul_cp" a;
  check_pt g ~what:"mul_cp" b;
  mk g ?freq Op.Mul_cp [| a; b |]

let rotate g ?freq a k =
  check_ct g ~what:"rotate" a;
  mk g ?freq (Op.Rotate k) [| a |]

let rescale g ?freq a =
  check_ct g ~what:"rescale" a;
  mk g ?freq Op.Rescale [| a |]

let modswitch g ?freq a =
  check_ct g ~what:"modswitch" a;
  mk g ?freq Op.Modswitch [| a |]

let bootstrap g ?freq ~target_level a =
  check_ct g ~what:"bootstrap" a;
  mk g ?freq (Op.Bootstrap target_level) [| a |]

let insert_after g ~tail ~heads kind =
  check_ct g ~what:"insert_after" tail;
  let freq = (node g tail).freq in
  let n' = mk g ~freq kind [| tail |] in
  List.iter
    (fun h ->
      let hn = node g h in
      let changed = ref false in
      Array.iteri
        (fun i a ->
          if a = tail then begin
            hn.args.(i) <- n';
            changed := true
          end)
        hn.args;
      if !changed then begin
        remove_user g tail h;
        add_user g n' h
      end)
    heads;
  n'

let wrap_operand g ~user ~arg_index kind =
  let un = node g user in
  if arg_index < 0 || arg_index >= Array.length un.args then
    invalid_arg "Dfg.wrap_operand: bad argument index";
  let tail = un.args.(arg_index) in
  let n' = mk g ~freq:un.freq kind [| tail |] in
  un.args.(arg_index) <- n';
  remove_user g tail user;
  add_user g n' user;
  n'

let set_arg g ~user ~arg_index new_arg =
  let un = node g user in
  if arg_index < 0 || arg_index >= Array.length un.args then
    invalid_arg "Dfg.set_arg: bad argument index";
  if new_arg < 0 || new_arg >= g.len || (node g new_arg).dead then
    invalid_arg "Dfg.set_arg: bad target";
  let old_arg = un.args.(arg_index) in
  if old_arg <> new_arg then begin
    un.args.(arg_index) <- new_arg;
    remove_user g old_arg user;
    add_user g new_arg user
  end

let replace_uses g ~old_id ~new_id =
  if old_id <> new_id then begin
    let old_users = (node g old_id).users in
    List.iter
      (fun u ->
        let un = node g u in
        Array.iteri (fun i a -> if a = old_id then un.args.(i) <- new_id) un.args;
        add_user g new_id u)
      old_users;
    (node g old_id).users <- [];
    g.outs <- List.map (fun o -> if o = old_id then new_id else o) g.outs
  end

let kill g id =
  let n = node g id in
  if n.users <> [] then invalid_arg "Dfg.kill: node still has users";
  if List.mem id g.outs then invalid_arg "Dfg.kill: node is an output";
  Array.iter (fun a -> (node g a).users <- List.filter (fun u -> u <> id) (node g a).users) n.args;
  n.dead <- true;
  n.args <- [||]

(* [args.(k)] does not occur in [args] before position [k]. *)
let is_first_use args k =
  let j = ref 0 in
  while args.(!j) <> args.(k) do
    incr j
  done;
  !j = k

let preds g id =
  match (node g id).args with
  | [||] -> []
  | [| a |] -> [ a ]
  | [| a; b |] -> if a = b then [ a ] else [ a; b ]
  | args -> List.filteri (fun k _ -> is_first_use args k) (Array.to_list args)

(* [add_user] keeps use lists duplicate-free ([validate] checks it). *)
let succs g id = List.rev (node g id).users

exception Cycle of int

(* Kahn's algorithm over the argument arrays: one edge [a -> id] per
   distinct argument [a] of each live node [id], with every node's
   consumers in one CSR array, ascending by id.  Roots enter the queue in
   ascending id (dead nodes too) and consumers are released in ascending
   id, so the order is a function of the graph alone.  Returns the queue:
   every node, in order.  On a cycle the witness is the least node whose
   in-degree never reached 0. *)
let kahn g =
  let n = g.len in
  let indeg = Array.make n 0 and queue = Array.make n 0 in
  (* [first.(a)] counts [a]'s consumers, then (prefix sums) ends its
     range, then (filled downwards) starts it; [first.(n)] is the edge
     count. *)
  let first = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    let { args; dead; _ } = g.nodes.(id) in
    if not dead then
      for k = 0 to Array.length args - 1 do
        if is_first_use args k then begin
          first.(args.(k)) <- first.(args.(k)) + 1;
          indeg.(id) <- indeg.(id) + 1
        end
      done
  done;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let consumers = Array.make first.(n) 0 in
  for id = n - 1 downto 0 do
    let { args; dead; _ } = g.nodes.(id) in
    if not dead then
      for k = 0 to Array.length args - 1 do
        if is_first_use args k then begin
          first.(args.(k)) <- first.(args.(k)) - 1;
          consumers.(first.(args.(k))) <- id
        end
      done
  done;
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for j = first.(u) to first.(u + 1) - 1 do
      let v = consumers.(j) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail < n then raise (Cycle (Option.get (Array.find_index (fun d -> d > 0) indeg)));
  queue

let topo_order g =
  let queue = kahn g in
  let order = ref [] in
  for k = g.len - 1 downto 0 do
    if not g.nodes.(queue.(k)).dead then order := queue.(k) :: !order
  done;
  !order

let validate ?(acyclic = false) g =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  for id = 0 to g.len - 1 do
    let n = g.nodes.(id) in
    if not n.dead then begin
      Array.iter
        (fun a ->
          if a < 0 || a >= g.len then err "node %d: argument %d out of range" id a
          else if (node g a).dead then err "node %d: argument %d is dead" id a
          else if not (List.mem id (node g a).users) then
            err "node %d: missing from use list of %d" id a)
        n.args;
      let rec first_dup = function
        | [] -> None
        | u :: rest -> if List.mem u rest then Some u else first_dup rest
      in
      (match first_dup n.users with
      | Some u -> err "node %d: user %d listed twice" id u
      | None -> ());
      let arity = Array.length n.args in
      let expect k = if arity <> k then err "node %d (%s): arity %d, expected %d" id (Op.name n.kind) arity k in
      (match n.kind with
      | Op.Input _ | Op.Const _ -> expect 0
      | Op.Add_cc | Op.Add_cp | Op.Mul_cc | Op.Mul_cp -> expect 2
      | Op.Rotate _ | Op.Relin | Op.Rescale | Op.Modswitch | Op.Bootstrap _ -> expect 1);
      (match n.kind with
      | Op.Mul_cc ->
          List.iter
            (fun u ->
              if (node g u).kind <> Op.Relin then
                err "node %d: mul_cc consumed by non-relin node %d" id u)
            n.users
      | Op.Relin -> (
          match n.args with
          | [| a |] when (node g a).kind <> Op.Mul_cc ->
              err "node %d: relin of non-mul_cc node %d" id a
          | _ -> ())
      | _ -> ());
      (match n.kind with
      | Op.Add_cp | Op.Mul_cp when arity = 2 ->
          if not (is_ct g n.args.(0)) then err "node %d: first operand must be ct" id;
          if is_ct g n.args.(1) then err "node %d: second operand must be pt" id
      | Op.Add_cc | Op.Mul_cc when arity = 2 ->
          Array.iter (fun a -> if not (is_ct g a) then err "node %d: pt operand in ct op" id) n.args
      | _ -> ())
    end
  done;
  List.iter
    (fun o ->
      if o < 0 || o >= g.len || (node g o).dead then err "dead or invalid output %d" o
      else if not (is_ct g o) then err "output %d is a plaintext" o)
    g.outs;
  (if not acyclic then
     match kahn g with _ -> () | exception Cycle _ -> err "graph has a cycle");
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let copy g =
  {
    nodes =
      Array.init g.len (fun i ->
          let n = g.nodes.(i) in
          { n with args = Array.copy n.args });
    len = g.len;
    outs = g.outs;
  }

type exported_node = {
  ex_kind : Op.kind;
  ex_args : int array;
  ex_freq : int;
  ex_dead : bool;
}

let export g =
  ( Array.init g.len (fun i ->
        let n = g.nodes.(i) in
        { ex_kind = n.kind; ex_args = Array.copy n.args; ex_freq = n.freq; ex_dead = n.dead }),
    g.outs )

let import (nodes, outs) =
  let g = create () in
  let n = Array.length nodes in
  Array.iteri
    (fun i en ->
      (* Args may legitimately point FORWARD: plan application appends
         SMO/bootstrap nodes and rewires earlier consumers onto them, so
         only the total range is checkable here. *)
      Array.iter
        (fun a ->
          if a < 0 || a >= n then invalid_arg "Dfg.import: argument out of range")
        en.ex_args;
      push g
        {
          id = i;
          kind = en.ex_kind;
          args = Array.copy en.ex_args;
          users = [];
          freq = en.ex_freq;
          dead = en.ex_dead;
        })
    nodes;
  for i = 0 to g.len - 1 do
    let n = g.nodes.(i) in
    if not n.dead then Array.iter (fun a -> add_user g a i) n.args
  done;
  List.iter
    (fun o -> if o < 0 || o >= n then invalid_arg "Dfg.import: output out of range")
    outs;
  g.outs <- outs;
  g

let pp ppf g =
  Format.fprintf ppf "@[<v>dfg (%d nodes)" g.len;
  List.iter
    (fun n ->
      Format.fprintf ppf "@,  %%%d = %s(%s)%s" n.id (Op.name n.kind)
        (String.concat ", " (List.map (Printf.sprintf "%%%d") (Array.to_list n.args)))
        (if n.freq > 1 then Printf.sprintf " x%d" n.freq else ""))
    (live_nodes g);
  Format.fprintf ppf "@,  outputs: %s@]"
    (String.concat ", " (List.map (Printf.sprintf "%%%d") g.outs))
