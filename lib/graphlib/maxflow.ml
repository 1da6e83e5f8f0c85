(* Dinic's algorithm with adjacency lists of arc records.  Each arc stores
   its residual capacity; the paired reverse arc is at [rev] in the
   destination's list.  Float capacities terminate because each phase
   saturates at least one arc on a shortest path and the level graph depth
   strictly increases across phases (at most [n] phases). *)

type arc = {
  dst : int;
  mutable cap : float;
  rev : int;  (* index of the reverse arc in [adj.(dst)] *)
  original : bool;  (* true for arcs added by the user with finite cap *)
  user : bool;  (* true for every arc added by the user, finite or not *)
  init_cap : float;
}

type stats = { nodes : int; arcs : int; bfs_phases : int; aug_paths : int }

(* Declared after [stats] so the label names below shadow its fields. *)
type t = {
  mutable adj : arc array array;  (* built lazily from [pending] *)
  mutable pending : arc list array;  (* per-node arcs, reverse insertion order *)
  mutable deg : int array;  (* arcs inserted so far per node *)
  mutable n : int;
  mutable built : bool;
  mutable edges_added : int;
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
    adj = [||];
    pending = Array.make (max n 1) [];
    deg = Array.make (max n 1) 0;
    n;
    built = false;
    edges_added = 0;
    bfs_phases = 0;
    aug_paths = 0;
  }

(* Arcs are prepended (O(1)) and the lists reversed once in [build], so a
   node's final adjacency index is its degree at insertion time. *)
let add_edge net ~src ~dst ~cap =
  if net.built then invalid_arg "Maxflow.add_edge: network already built";
  if cap < 0.0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= net.n || dst < 0 || dst >= net.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  let fwd_pos = net.deg.(src) in
  net.deg.(src) <- fwd_pos + 1;
  let bwd_pos = net.deg.(dst) in
  net.deg.(dst) <- bwd_pos + 1;
  let fwd =
    { dst; cap; rev = bwd_pos; original = cap < infinity; user = true; init_cap = cap }
  and bwd =
    { dst = src; cap = 0.0; rev = fwd_pos; original = false; user = false; init_cap = 0.0 }
  in
  net.pending.(src) <- fwd :: net.pending.(src);
  net.pending.(dst) <- bwd :: net.pending.(dst);
  net.edges_added <- net.edges_added + 1

let build net =
  if not net.built then begin
    net.adj <-
      Array.map (fun arcs -> Array.of_list (List.rev arcs)) (Array.sub net.pending 0 net.n);
    net.built <- true
  end

let stats net : stats =
  {
    nodes = net.n;
    arcs = 2 * net.edges_added;
    bfs_phases = net.bfs_phases;
    aug_paths = net.aug_paths;
  }

let bfs net ~source ~sink level =
  net.bfs_phases <- net.bfs_phases + 1;
  Array.fill level 0 net.n (-1);
  level.(source) <- 0;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun a ->
        if a.cap > eps && level.(a.dst) < 0 then begin
          level.(a.dst) <- level.(u) + 1;
          Queue.add a.dst queue
        end)
      net.adj.(u)
  done;
  level.(sink) >= 0

let rec dfs net level iter u sink pushed =
  if u = sink then pushed
  else begin
    let res = ref 0.0 in
    while !res = 0.0 && iter.(u) < Array.length net.adj.(u) do
      let a = net.adj.(u).(iter.(u)) in
      if a.cap > eps && level.(a.dst) = level.(u) + 1 then begin
        let d = dfs net level iter a.dst sink (min pushed a.cap) in
        if d > eps then begin
          a.cap <- a.cap -. d;
          let back = net.adj.(a.dst).(a.rev) in
          back.cap <- back.cap +. d;
          res := d
        end
        else iter.(u) <- iter.(u) + 1
      end
      else iter.(u) <- iter.(u) + 1
    done;
    !res
  end

let max_flow net ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  build net;
  let level = Array.make net.n (-1) in
  let flow = ref 0.0 in
  (try
     while bfs net ~source ~sink level do
       let iter = Array.make net.n 0 in
       let pushed = ref (dfs net level iter source sink infinity) in
       while !pushed > eps do
         flow := !flow +. !pushed;
         net.aug_paths <- net.aug_paths + 1;
         if !flow = infinity then raise Exit;
         pushed := dfs net level iter source sink infinity
       done
     done
   with Exit -> ());
  Obs.Counter.bump runs_counter;
  Obs.Counter.add bfs_phases_counter net.bfs_phases;
  Obs.Counter.add aug_paths_counter net.aug_paths;
  !flow

type cut = {
  value : float;
  source_side : bool array;
  edges : (int * int) list;
}

let min_cut net ~source ~sink =
  let value = max_flow net ~source ~sink in
  (* Residual reachability from the source identifies the source side. *)
  let side = Array.make net.n false in
  side.(source) <- true;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun a ->
        if a.cap > eps && not side.(a.dst) then begin
          side.(a.dst) <- true;
          Queue.add a.dst queue
        end)
      net.adj.(u)
  done;
  let edges = ref [] in
  for u = 0 to net.n - 1 do
    if side.(u) then
      Array.iter
        (fun a -> if a.original && not side.(a.dst) then edges := (u, a.dst) :: !edges)
        net.adj.(u)
  done;
  let edges = List.rev !edges in
  Obs.Counter.add cut_edges_counter (List.length edges);
  { value; source_side = side; edges }

type flow_arc = { fa_src : int; fa_dst : int; fa_cap : float; fa_flow : float }

type certificate = {
  cert_nodes : int;
  cert_source : int;
  cert_sink : int;
  cert_value : float;
  cert_source_side : bool array;
  cert_arcs : flow_arc array;
}

(* The net flow routed through a user arc is exactly its residual
   companion's final capacity: the companion starts at 0.0, every forward
   push adds to it and every cancellation subtracts, and it never goes
   negative.  This also works for infinite-capacity user arcs, whose own
   residual capacity stays [infinity]. *)
let certificate net ~source ~sink (c : cut) =
  if not net.built then invalid_arg "Maxflow.certificate: network not built";
  let arcs = ref [] in
  for u = net.n - 1 downto 0 do
    let row = net.adj.(u) in
    for i = Array.length row - 1 downto 0 do
      let a = row.(i) in
      if a.user then
        arcs :=
          {
            fa_src = u;
            fa_dst = a.dst;
            fa_cap = a.init_cap;
            fa_flow = net.adj.(a.dst).(a.rev).cap;
          }
          :: !arcs
    done
  done;
  {
    cert_nodes = net.n;
    cert_source = source;
    cert_sink = sink;
    cert_value = c.value;
    cert_source_side = Array.copy c.source_side;
    cert_arcs = Array.of_list !arcs;
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
