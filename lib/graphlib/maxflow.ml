(* Dinic's algorithm over a compressed-sparse-row residual graph.  Node
   [u]'s arcs are [off.(u) .. off.(u + 1) - 1], in the order [add_edge]
   touched [u] (the forward arc at the tail, the residual companion at the
   head); [rev] pairs each arc with its companion.  Float capacities
   terminate because each phase saturates at least one arc on a shortest
   path and the level graph depth strictly increases across phases (at
   most [n] phases). *)

type stats = { nodes : int; arcs : int; bfs_phases : int; aug_paths : int }

(* Declared after [stats] so the label names below shadow its fields. *)
type t = {
  n : int;
  (* The user arcs in insertion order, grown by [add_edge]. *)
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_cap : float array;
  mutable m : int;
  (* The residual graph, laid out by the first solve. *)
  mutable built : bool;
  mutable off : int array;
  mutable head : int array;
  mutable rev : int array;
  mutable edge : int array;  (* user arc behind a forward arc; -1 for a companion *)
  mutable cap : float array;  (* residual capacity *)
  mutable solved : bool;
  mutable bfs_phases : int;
  mutable aug_paths : int;
}

let eps = 1e-9

(* Work counters on the ambient profile. *)
let runs_counter = Obs.Counter.make "maxflow.runs"
let bfs_phases_counter = Obs.Counter.make "maxflow.bfs_phases"
let aug_paths_counter = Obs.Counter.make "maxflow.aug_paths"
let cut_edges_counter = Obs.Counter.make "maxflow.cut_edges"

let create n =
  if n < 0 then invalid_arg "Maxflow.create";
  {
    n;
    e_src = [||];
    e_dst = [||];
    e_cap = [||];
    m = 0;
    built = false;
    off = [||];
    head = [||];
    rev = [||];
    edge = [||];
    cap = [||];
    solved = false;
    bfs_phases = 0;
    aug_paths = 0;
  }

let add_edge net ~src ~dst ~cap =
  if net.built then invalid_arg "Maxflow.add_edge: network already built";
  if cap < 0.0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= net.n || dst < 0 || dst >= net.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  let m = net.m in
  if m = Array.length net.e_src then begin
    let size = max 8 (2 * m) in
    let grow a fill = Array.append a (Array.make (size - m) fill) in
    net.e_src <- grow net.e_src 0;
    net.e_dst <- grow net.e_dst 0;
    net.e_cap <- grow net.e_cap 0.0
  end;
  net.e_src.(m) <- src;
  net.e_dst.(m) <- dst;
  net.e_cap.(m) <- cap;
  net.m <- m + 1

let set_capacity net e cap =
  if e < 0 || e >= net.m then invalid_arg "Maxflow.set_capacity: no such arc";
  if cap < 0.0 then invalid_arg "Maxflow.set_capacity: negative capacity";
  net.e_cap.(e) <- cap;
  net.solved <- false

(* Counting sort of the arc ends by node, then one replay of the
   insertion order: an arc's slot in its node's row is the number of arcs
   the node had before it, as in an adjacency list appended to. *)
let build net =
  if not net.built then begin
    let n = net.n and m = net.m in
    let off = Array.make (n + 1) 0 in
    for e = 0 to m - 1 do
      let s = net.e_src.(e) + 1 and d = net.e_dst.(e) + 1 in
      off.(s) <- off.(s) + 1;
      off.(d) <- off.(d) + 1
    done;
    for u = 1 to n do
      off.(u) <- off.(u) + off.(u - 1)
    done;
    let cursor = Array.sub off 0 (max n 1) in
    let head = Array.make (2 * m) 0 and rev = Array.make (2 * m) 0 in
    let edge = Array.make (2 * m) (-1) in
    for e = 0 to m - 1 do
      let s = net.e_src.(e) and d = net.e_dst.(e) in
      let f = cursor.(s) in
      cursor.(s) <- f + 1;
      let b = cursor.(d) in
      cursor.(d) <- b + 1;
      head.(f) <- d;
      head.(b) <- s;
      rev.(f) <- b;
      rev.(b) <- f;
      edge.(f) <- e
    done;
    (* Only the capacities outlive the layout. *)
    net.e_src <- [||];
    net.e_dst <- [||];
    net.e_cap <- Array.sub net.e_cap 0 m;
    net.off <- off;
    net.head <- head;
    net.rev <- rev;
    net.edge <- edge;
    net.cap <- Array.make (2 * m) 0.0;
    net.built <- true
  end

let stats net : stats =
  { nodes = net.n; arcs = 2 * net.m; bfs_phases = net.bfs_phases; aug_paths = net.aug_paths }

(* One solve's workspaces, allocated per solve so that a network kept
   for re-solving holds only its layout. *)
type work = {
  level : int array;
  iter : int array;  (* current arc *)
  queue : int array;
  path : int array;  (* arcs of the path being grown *)
}

(* Level graph by BFS from the source; true when the sink is reached. *)
let bfs net w ~source ~sink =
  net.bfs_phases <- net.bfs_phases + 1;
  let level = w.level and queue = w.queue in
  let off = net.off and head = net.head and cap = net.cap in
  Array.fill level 0 net.n (-1);
  level.(source) <- 0;
  queue.(0) <- source;
  let qh = ref 0 and qt = ref 1 in
  while !qh < !qt do
    let u = queue.(!qh) in
    incr qh;
    let next = level.(u) + 1 in
    for a = off.(u) to off.(u + 1) - 1 do
      let v = head.(a) in
      if cap.(a) > eps && level.(v) < 0 then begin
        level.(v) <- next;
        queue.(!qt) <- v;
        incr qt
      end
    done
  done;
  level.(sink) >= 0

(* One augmenting path of the level graph, or 0.0 when the source is a
   dead end.  A depth-first search with an explicit stack of arcs: a
   node's current arc only moves past arcs that are not admissible or
   lead to a dead end, so a path found is the one the textbook recursion
   finds, and the bottleneck is folded source to sink as it would be. *)
let augment net w ~source ~sink =
  let level = w.level and iter = w.iter and path = w.path in
  let off = net.off and head = net.head and rev = net.rev and cap = net.cap in
  let depth = ref 0 and u = ref source and pushed = ref 0.0 and searching = ref true in
  while !searching do
    let x = !u in
    if x = sink then begin
      let d = ref infinity in
      for i = 0 to !depth - 1 do
        let c = cap.(path.(i)) in
        if not (!d <= c) then d := c
      done;
      for i = 0 to !depth - 1 do
        let a = path.(i) in
        cap.(a) <- cap.(a) -. !d;
        let b = rev.(a) in
        cap.(b) <- cap.(b) +. !d
      done;
      pushed := !d;
      searching := false
    end
    else begin
      let stop = off.(x + 1) and next = level.(x) + 1 in
      let a = ref iter.(x) in
      while !a < stop && not (cap.(!a) > eps && level.(head.(!a)) = next) do
        incr a
      done;
      iter.(x) <- !a;
      if !a < stop then begin
        path.(!depth) <- !a;
        incr depth;
        u := head.(!a)
      end
      else if !depth = 0 then searching := false
      else begin
        (* Dead end: retreat and move the parent past the arc here. *)
        decr depth;
        let parent = head.(rev.(path.(!depth))) in
        iter.(parent) <- iter.(parent) + 1;
        u := parent
      end
    end
  done;
  !pushed

let solve net w ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  build net;
  let cap = net.cap and edge = net.edge and e_cap = net.e_cap in
  for a = 0 to (2 * net.m) - 1 do
    let e = edge.(a) in
    cap.(a) <- (if e >= 0 then e_cap.(e) else 0.0)
  done;
  net.bfs_phases <- 0;
  net.aug_paths <- 0;
  let flow = ref 0.0 in
  (try
     while bfs net w ~source ~sink do
       Array.blit net.off 0 w.iter 0 net.n;
       let pushed = ref (augment net w ~source ~sink) in
       while !pushed > eps do
         flow := !flow +. !pushed;
         net.aug_paths <- net.aug_paths + 1;
         if !flow = infinity then raise Exit;
         pushed := augment net w ~source ~sink
       done
     done
   with Exit -> ());
  net.solved <- true;
  Obs.Counter.bump runs_counter;
  Obs.Counter.add bfs_phases_counter net.bfs_phases;
  Obs.Counter.add aug_paths_counter net.aug_paths;
  !flow

let work n =
  {
    level = Array.make n (-1);
    iter = Array.make n 0;
    queue = Array.make n 0;
    path = Array.make n 0;
  }

let max_flow net ~source ~sink = solve net (work net.n) ~source ~sink

type cut = {
  value : float;
  source_side : bool array;
  edges : (int * int) list;
}

let min_cut net ~source ~sink =
  let w = work net.n in
  let value = solve net w ~source ~sink in
  (* Residual reachability from the source identifies the source side. *)
  let off = net.off and head = net.head and cap = net.cap and queue = w.queue in
  let side = Array.make net.n false in
  side.(source) <- true;
  queue.(0) <- source;
  let qh = ref 0 and qt = ref 1 in
  while !qh < !qt do
    let u = queue.(!qh) in
    incr qh;
    for a = off.(u) to off.(u + 1) - 1 do
      let v = head.(a) in
      if cap.(a) > eps && not side.(v) then begin
        side.(v) <- true;
        queue.(!qt) <- v;
        incr qt
      end
    done
  done;
  (* Only arcs added with a finite capacity can be cut. *)
  let edges = ref [] and count = ref 0 in
  for u = net.n - 1 downto 0 do
    if side.(u) then
      for a = off.(u + 1) - 1 downto off.(u) do
        let e = net.edge.(a) and v = head.(a) in
        if e >= 0 && net.e_cap.(e) < infinity && not side.(v) then begin
          edges := (u, v) :: !edges;
          incr count
        end
      done
  done;
  Obs.Counter.add cut_edges_counter !count;
  { value; source_side = side; edges = !edges }

type flow_arc = { fa_src : int; fa_dst : int; fa_cap : float; fa_flow : float }

type certificate = {
  cert_nodes : int;
  cert_source : int;
  cert_sink : int;
  cert_value : float;
  cert_source_side : bool array;
  cert_arcs : flow_arc array;
}

(* [a.(i)] as a boxed float for a certificate field.  The values most
   arcs carry — an infinite capacity, a zero flow — share one static box,
   so a kept certificate costs a box only per distinct finite value. *)
let[@inline never] boxed (a : float array) i =
  let c = a.(i) in
  if c = infinity then infinity else if c = 0.0 && not (Float.sign_bit c) then 0.0 else c

(* A solve's capacities and residuals, copied out of the network so that
   a refill and re-solve of the same topology leaves them intact. *)
type snapshot = { s_cap : float array; s_resid : float array }

let snapshot net =
  if not net.solved then invalid_arg "Maxflow.snapshot: network not solved";
  { s_cap = Array.copy net.e_cap; s_resid = Array.copy net.cap }

(* The net flow routed through a user arc is exactly its residual
   companion's final capacity: the companion starts at 0.0, every forward
   push adds to it and every cancellation subtracts, and it never goes
   negative.  This also works for infinite-capacity user arcs, whose own
   residual capacity stays [infinity]. *)
let certificate ?snapshot net ~source ~sink (c : cut) =
  let e_cap, resid =
    match snapshot with
    | Some s -> (s.s_cap, s.s_resid)
    | None ->
        if not net.solved then invalid_arg "Maxflow.certificate: network not solved";
        (net.e_cap, net.cap)
  in
  let none = { fa_src = 0; fa_dst = 0; fa_cap = 0.0; fa_flow = 0.0 } in
  let arcs = Array.make net.m none and k = ref 0 in
  for u = 0 to net.n - 1 do
    for a = net.off.(u) to net.off.(u + 1) - 1 do
      let e = net.edge.(a) in
      if e >= 0 then begin
        arcs.(!k) <-
          {
            fa_src = u;
            fa_dst = net.head.(a);
            fa_cap = boxed e_cap e;
            fa_flow = boxed resid net.rev.(a);
          };
        incr k
      end
    done
  done;
  {
    cert_nodes = net.n;
    cert_source = source;
    cert_sink = sink;
    cert_value = c.value;
    cert_source_side = Array.copy c.source_side;
    cert_arcs = arcs;
  }

(* Counterfactual replay: rebuild the network a certificate was exported
   from (same nodes, same arcs in the same insertion order, initial
   capacities), optionally lifting some arcs to infinite capacity so they
   can no longer be cut.  Re-running [min_cut] then yields the best cut
   that avoids the forbidden arcs — the "next-best placement" and its
   cost penalty relative to [cert_value]. *)
let of_certificate ?(forbid = []) (cert : certificate) =
  let net = create cert.cert_nodes in
  Array.iter
    (fun (a : flow_arc) ->
      let cap =
        if List.exists (fun (s, d) -> s = a.fa_src && d = a.fa_dst) forbid then
          infinity
        else a.fa_cap
      in
      add_edge net ~src:a.fa_src ~dst:a.fa_dst ~cap)
    cert.cert_arcs;
  net
