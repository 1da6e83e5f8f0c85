open Test_util

(* --- Digraph ----------------------------------------------------------- *)

let digraph_basics () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 4;
  Graphlib.Digraph.add_edge g 0 1;
  Graphlib.Digraph.add_edge g 0 2;
  Graphlib.Digraph.add_edge g 1 3;
  Graphlib.Digraph.add_edge g 2 3;
  checki "nodes" 4 (Graphlib.Digraph.node_count g);
  checki "edges" 4 (Graphlib.Digraph.edge_count g);
  checkb "mem 0->1" true (Graphlib.Digraph.mem_edge g 0 1);
  checkb "no 1->0" false (Graphlib.Digraph.mem_edge g 1 0);
  checki "succs 0" 2 (List.length (Graphlib.Digraph.succs g 0));
  checki "preds 3" 2 (List.length (Graphlib.Digraph.preds g 3));
  checki "out-deg 0" 2 (Graphlib.Digraph.out_degree g 0);
  checki "in-deg 3" 2 (Graphlib.Digraph.in_degree g 3)

let digraph_duplicate_edges () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 2;
  Graphlib.Digraph.add_edge g 0 1;
  Graphlib.Digraph.add_edge g 0 1;
  checki "dedup" 1 (Graphlib.Digraph.edge_count g)

let digraph_self_edge () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 1;
  Alcotest.check_raises "self edge" (Invalid_argument "Digraph.add_edge: self edge")
    (fun () -> Graphlib.Digraph.add_edge g 0 0)

let digraph_out_of_range () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 1;
  checkb "raises" true
    (match Graphlib.Digraph.add_edge g 0 5 with
    | () -> false
    | exception Invalid_argument _ -> true)

let digraph_transpose () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 3;
  Graphlib.Digraph.add_edge g 0 1;
  Graphlib.Digraph.add_edge g 1 2;
  let t = Graphlib.Digraph.transpose g in
  checkb "reversed" true (Graphlib.Digraph.mem_edge t 1 0);
  checkb "reversed 2" true (Graphlib.Digraph.mem_edge t 2 1);
  checki "same node count" 3 (Graphlib.Digraph.node_count t)

let digraph_growth () =
  let g = Graphlib.Digraph.create ~capacity:1 () in
  for _ = 1 to 100 do
    ignore (Graphlib.Digraph.add_node g)
  done;
  for i = 0 to 98 do
    Graphlib.Digraph.add_edge g i (i + 1)
  done;
  checki "nodes" 100 (Graphlib.Digraph.node_count g);
  checki "edges" 99 (Graphlib.Digraph.edge_count g)

(* --- Topo --------------------------------------------------------------- *)

let topo_chain () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 5;
  Graphlib.Digraph.add_edge g 3 1;
  Graphlib.Digraph.add_edge g 1 4;
  Graphlib.Digraph.add_edge g 4 0;
  Graphlib.Digraph.add_edge g 0 2;
  check (Alcotest.list Alcotest.int) "chain order" [ 3; 1; 4; 0; 2 ]
    (Graphlib.Topo.sort g)

let topo_respects_edges () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 6;
  List.iter
    (fun (u, v) -> Graphlib.Digraph.add_edge g u v)
    [ (0, 2); (1, 2); (2, 3); (2, 4); (3, 5); (4, 5) ];
  let order = Graphlib.Topo.sort g in
  let pos = Array.make 6 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  Graphlib.Digraph.iter_edges g (fun u v ->
      checkb (Printf.sprintf "%d before %d" u v) true (pos.(u) < pos.(v)))

let topo_cycle () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 3;
  Graphlib.Digraph.add_edge g 0 1;
  Graphlib.Digraph.add_edge g 1 2;
  Graphlib.Digraph.add_edge g 2 0;
  checkb "cycle detected" false (Graphlib.Topo.is_dag g);
  checkb "raises" true
    (match Graphlib.Topo.sort g with
    | _ -> false
    | exception Graphlib.Topo.Cycle _ -> true)

let topo_reverse () =
  let g = Graphlib.Digraph.create () in
  Graphlib.Digraph.add_nodes g 3;
  Graphlib.Digraph.add_edge g 0 1;
  Graphlib.Digraph.add_edge g 1 2;
  check (Alcotest.list Alcotest.int) "reverse" [ 2; 1; 0 ] (Graphlib.Topo.reverse_sort g)

let topo_random_prop =
  qcheck ~count:50 "random DAGs topo-sort correctly"
    QCheck2.Gen.(pair (int_range 2 30) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      let g = Graphlib.Digraph.create () in
      Graphlib.Digraph.add_nodes g n;
      (* forward edges only: guaranteed DAG *)
      for _ = 1 to 2 * n do
        let u = Ckks.Prng.int rng ~bound:(n - 1) in
        let v = u + 1 + Ckks.Prng.int rng ~bound:(n - u - 1) in
        Graphlib.Digraph.add_edge g u v
      done;
      let order = Graphlib.Topo.sort g in
      let pos = Array.make n 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      let ok = ref (List.length order = n) in
      Graphlib.Digraph.iter_edges g (fun u v -> if pos.(u) >= pos.(v) then ok := false);
      !ok)

(* --- Maxflow ------------------------------------------------------------ *)

let maxflow_simple () =
  let net = Graphlib.Maxflow.create 4 in
  Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3.0;
  Graphlib.Maxflow.add_edge net ~src:0 ~dst:2 ~cap:2.0;
  Graphlib.Maxflow.add_edge net ~src:1 ~dst:3 ~cap:2.0;
  Graphlib.Maxflow.add_edge net ~src:2 ~dst:3 ~cap:3.0;
  Graphlib.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1.0;
  check_float ~eps:1e-6 "max flow" 5.0 (Graphlib.Maxflow.max_flow net ~source:0 ~sink:3)

let maxflow_min_cut_value () =
  let net = Graphlib.Maxflow.create 4 in
  Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:10.0;
  Graphlib.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1.5;
  Graphlib.Maxflow.add_edge net ~src:2 ~dst:3 ~cap:10.0;
  let cut = Graphlib.Maxflow.min_cut net ~source:0 ~sink:3 in
  check_float ~eps:1e-6 "bottleneck" 1.5 cut.Graphlib.Maxflow.value;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "cut edge" [ (1, 2) ] cut.Graphlib.Maxflow.edges;
  checkb "source side" true cut.Graphlib.Maxflow.source_side.(1);
  checkb "sink side" false cut.Graphlib.Maxflow.source_side.(2)

let maxflow_infinite_edges () =
  let net = Graphlib.Maxflow.create 4 in
  Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:infinity;
  Graphlib.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:4.0;
  Graphlib.Maxflow.add_edge net ~src:2 ~dst:3 ~cap:infinity;
  let cut = Graphlib.Maxflow.min_cut net ~source:0 ~sink:3 in
  check_float ~eps:1e-6 "finite bottleneck" 4.0 cut.Graphlib.Maxflow.value;
  (* infinite edges never appear in the reported cut *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "cut edge" [ (1, 2) ] cut.Graphlib.Maxflow.edges

let maxflow_disconnected () =
  let net = Graphlib.Maxflow.create 3 in
  Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5.0;
  check_float ~eps:1e-6 "no path" 0.0 (Graphlib.Maxflow.max_flow net ~source:0 ~sink:2)

let maxflow_negative_cap () =
  let net = Graphlib.Maxflow.create 2 in
  checkb "negative rejected" true
    (match Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:(-1.0) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Brute-force min cut: enumerate subsets containing the source. *)
let brute_force_min_cut edges n ~source ~sink =
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl source) <> 0 && mask land (1 lsl sink) = 0 then begin
      let v =
        List.fold_left
          (fun acc (u, w, c) ->
            if mask land (1 lsl u) <> 0 && mask land (1 lsl w) = 0 then acc +. c else acc)
          0.0 edges
      in
      if v < !best then best := v
    end
  done;
  !best

let maxflow_matches_brute_force =
  qcheck ~count:100 "max-flow equals brute-force min cut"
    QCheck2.Gen.(pair (int_range 3 7) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Ckks.Prng.float rng < 0.45 then
            edges := (u, v, float_of_int (1 + Ckks.Prng.int rng ~bound:9)) :: !edges
        done
      done;
      let net = Graphlib.Maxflow.create n in
      List.iter (fun (u, v, c) -> Graphlib.Maxflow.add_edge net ~src:u ~dst:v ~cap:c) !edges;
      let flow = Graphlib.Maxflow.max_flow net ~source:0 ~sink:(n - 1) in
      let expect = brute_force_min_cut !edges n ~source:0 ~sink:(n - 1) in
      Float.abs (flow -. expect) < 1e-6)

let maxflow_dense_matches_brute_force =
  qcheck ~count:60 "dense random graphs match brute-force cut enumeration"
    QCheck2.Gen.(pair (int_range 4 8) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Ckks.Prng.float rng < 0.9 then
            edges := (u, v, float_of_int (1 + Ckks.Prng.int rng ~bound:9)) :: !edges
        done
      done;
      let net = Graphlib.Maxflow.create n in
      List.iter (fun (u, v, c) -> Graphlib.Maxflow.add_edge net ~src:u ~dst:v ~cap:c) !edges;
      let cut = Graphlib.Maxflow.min_cut net ~source:0 ~sink:(n - 1) in
      let expect = brute_force_min_cut !edges n ~source:0 ~sink:(n - 1) in
      let st = Graphlib.Maxflow.stats net in
      Float.abs (cut.Graphlib.Maxflow.value -. expect) < 1e-6
      && st.Graphlib.Maxflow.arcs = 2 * List.length !edges
      && (expect = 0.0 || st.Graphlib.Maxflow.aug_paths > 0))

let maxflow_wide_star_construction () =
  (* 10k parallel chains s -> i -> t, i.e. 10k edges converging on one
     node.  The old pending representation (List.length + append per
     edge) made building this network quadratic in the node degree; the
     whole construct-and-solve must now stay well under a second. *)
  let k = 10_000 in
  let net = Graphlib.Maxflow.create (k + 2) in
  let s = k and t = k + 1 in
  let timer = Obs.Timer.start () in
  for i = 0 to k - 1 do
    Graphlib.Maxflow.add_edge net ~src:s ~dst:i ~cap:1.0;
    Graphlib.Maxflow.add_edge net ~src:i ~dst:t ~cap:2.0
  done;
  let flow = Graphlib.Maxflow.max_flow net ~source:s ~sink:t in
  check_float ~eps:1e-6 "flow saturates every chain" (float_of_int k) flow;
  let st = Graphlib.Maxflow.stats net in
  checki "arc records" (4 * k) st.Graphlib.Maxflow.arcs;
  checki "nodes" (k + 2) st.Graphlib.Maxflow.nodes;
  checkb "bfs phases counted" true (st.Graphlib.Maxflow.bfs_phases >= 1);
  checkb "augmenting paths counted" true (st.Graphlib.Maxflow.aug_paths >= 1);
  checkb "no quadratic blowup (under 10s)" true (Obs.Timer.elapsed_ms timer < 10_000.0)

let maxflow_stats_counters () =
  let net = Graphlib.Maxflow.create 4 in
  Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3.0;
  Graphlib.Maxflow.add_edge net ~src:0 ~dst:2 ~cap:2.0;
  Graphlib.Maxflow.add_edge net ~src:1 ~dst:3 ~cap:2.0;
  Graphlib.Maxflow.add_edge net ~src:2 ~dst:3 ~cap:3.0;
  Graphlib.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1.0;
  let st0 = Graphlib.Maxflow.stats net in
  checki "idle bfs phases" 0 st0.Graphlib.Maxflow.bfs_phases;
  checki "idle augmenting paths" 0 st0.Graphlib.Maxflow.aug_paths;
  check_float ~eps:1e-6 "flow unchanged by instrumentation" 5.0
    (Graphlib.Maxflow.max_flow net ~source:0 ~sink:3);
  let st = Graphlib.Maxflow.stats net in
  checki "arc records (fwd + residual)" 10 st.Graphlib.Maxflow.arcs;
  checkb "bfs phases counted" true (st.Graphlib.Maxflow.bfs_phases >= 2);
  checkb "augmenting paths counted" true (st.Graphlib.Maxflow.aug_paths >= 2)

let maxflow_cut_separates =
  qcheck ~count:100 "removing the cut disconnects source from sink"
    QCheck2.Gen.(pair (int_range 3 8) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      let edges = ref [] in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Ckks.Prng.float rng < 0.5 then
            edges := (u, v, 1.0 +. Ckks.Prng.float rng) :: !edges
        done
      done;
      let net = Graphlib.Maxflow.create n in
      List.iter (fun (u, v, c) -> Graphlib.Maxflow.add_edge net ~src:u ~dst:v ~cap:c) !edges;
      let cut = Graphlib.Maxflow.min_cut net ~source:0 ~sink:(n - 1) in
      let cut_set = cut.Graphlib.Maxflow.edges in
      (* BFS in the graph minus the cut edges *)
      let adj = Array.make n [] in
      List.iter
        (fun (u, v, _) -> if not (List.mem (u, v) cut_set) then adj.(u) <- v :: adj.(u))
        !edges;
      let seen = Array.make n false in
      let rec go u =
        if not seen.(u) then begin
          seen.(u) <- true;
          List.iter go adj.(u)
        end
      in
      go 0;
      not seen.(n - 1))

let suite =
  [
    case "digraph: basics" digraph_basics;
    case "digraph: duplicate edges ignored" digraph_duplicate_edges;
    case "digraph: self edges rejected" digraph_self_edge;
    case "digraph: out-of-range rejected" digraph_out_of_range;
    case "digraph: transpose" digraph_transpose;
    case "digraph: growth" digraph_growth;
    case "topo: chain" topo_chain;
    case "topo: respects edges" topo_respects_edges;
    case "topo: cycle detection" topo_cycle;
    case "topo: reverse order" topo_reverse;
    topo_random_prop;
    case "maxflow: simple network" maxflow_simple;
    case "maxflow: min-cut value and edges" maxflow_min_cut_value;
    case "maxflow: infinite edges excluded from cut" maxflow_infinite_edges;
    case "maxflow: disconnected" maxflow_disconnected;
    case "maxflow: negative capacity rejected" maxflow_negative_cap;
    maxflow_matches_brute_force;
    maxflow_dense_matches_brute_force;
    case "maxflow: wide star construction (10k edges)" maxflow_wide_star_construction;
    case "maxflow: work counters" maxflow_stats_counters;
    maxflow_cut_separates;
  ]
