type t = {
  mutable succ : int list array;
  mutable pred : int list array;
  mutable n : int;
  mutable m : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { succ = Array.make capacity []; pred = Array.make capacity []; n = 0; m = 0 }

let grow g =
  let cap = Array.length g.succ in
  if g.n >= cap then begin
    let cap' = (2 * cap) + 1 in
    let succ' = Array.make cap' [] and pred' = Array.make cap' [] in
    Array.blit g.succ 0 succ' 0 g.n;
    Array.blit g.pred 0 pred' 0 g.n;
    g.succ <- succ';
    g.pred <- pred'
  end

let add_node g =
  grow g;
  let id = g.n in
  g.n <- g.n + 1;
  id

let add_nodes g k =
  for _ = 1 to k do
    ignore (add_node g)
  done

let node_count g = g.n
let edge_count g = g.m

let check_node g v =
  if v < 0 || v >= g.n then invalid_arg (Printf.sprintf "Digraph: node %d out of range" v)

let mem_edge g u v =
  check_node g u;
  check_node g v;
  List.mem v g.succ.(u)

let add_edge g u v =
  check_node g u;
  check_node g v;
  if u = v then invalid_arg "Digraph.add_edge: self edge";
  if not (List.mem v g.succ.(u)) then begin
    g.succ.(u) <- v :: g.succ.(u);
    g.pred.(v) <- u :: g.pred.(v);
    g.m <- g.m + 1
  end

let succs g u =
  check_node g u;
  List.rev g.succ.(u)

let preds g u =
  check_node g u;
  List.rev g.pred.(u)

let out_degree g u =
  check_node g u;
  List.length g.succ.(u)

let in_degree g u =
  check_node g u;
  List.length g.pred.(u)

let iter_edges g f =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> f u v) (List.rev g.succ.(u))
  done

let transpose g =
  let t = create ~capacity:g.n () in
  add_nodes t g.n;
  iter_edges g (fun u v -> add_edge t v u);
  t

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph (%d nodes, %d edges)" g.n g.m;
  iter_edges g (fun u v -> Format.fprintf ppf "@,  %d -> %d" u v);
  Format.fprintf ppf "@]"
