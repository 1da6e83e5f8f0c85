open Test_util
open Fhe_ir

(* --- Topological order ----------------------------------------------------- *)

(* [Dfg.topo_order] replaced a list-based Kahn over a [Graphlib.Digraph]
   copy of the graph; [Test_util.topo_oracle] keeps that algorithm, and
   every case here checks the array pass against it. *)

let ints = Alcotest.list Alcotest.int

let sorted sort g = match sort g with o -> Ok o | exception Dfg.Cycle w -> Error w

let check_oracle msg g =
  check
    (Alcotest.result ints Alcotest.int)
    msg (sorted topo_oracle g) (sorted Dfg.topo_order g)

(* Nodes [0 .. n-1], node [v] reading every [u] of an edge [(u, v)], in
   edge order.  Kinds are placeholders: the sort reads arguments only. *)
let dfg_of_edges n edges =
  let node v =
    let args =
      Array.of_list (List.filter_map (fun (u, w) -> if w = v then Some u else None) edges)
    in
    let ex_kind =
      if args = [||] then Op.Input { name = "x"; level = None; scale_bits = None }
      else Op.Add_cc
    in
    { Dfg.ex_kind; ex_args = args; ex_freq = 1; ex_dead = false }
  in
  Dfg.import (Array.init n node, [])

let has_cycle_error g =
  match Dfg.validate g with
  | Ok () -> false
  | Error msgs -> List.mem "graph has a cycle" msgs

let digraph_basics () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let a = Dfg.rotate g x 1 in
  let b = Dfg.rotate g x 2 in
  let c = Dfg.add_cc g a b in
  checki "nodes" 4 (Dfg.node_count g);
  check ints "succs x" [ a; b ] (Dfg.succs g x);
  check ints "preds c" [ a; b ] (Dfg.preds g c);
  check ints "order" [ x; a; b; c ] (Dfg.topo_order g);
  check_oracle "oracle" g

(* A repeated argument is one edge: [mul_cc x x] and [add_cc y y] are
   released as soon as their one operand is. *)
let digraph_duplicate_edges () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let sq = Dfg.mul_cc g x x in
  let y = Dfg.rotate g x 1 in
  let dbl = Dfg.add_cc g y y in
  let out = Dfg.add_cc g sq dbl in
  Dfg.set_outputs g [ out ];
  check ints "one pred" [ x ] (Dfg.preds g (sq - 1));
  check ints "FIFO order" [ x; sq - 1; y; sq; dbl; out ] (Dfg.topo_order g);
  check_oracle "oracle" g

(* The list-based sort rejected a self edge with [Invalid_argument]; the
   array pass reports it as the cycle it is. *)
let digraph_self_edge () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g x 1 in
  Dfg.set_arg g ~user:r ~arg_index:0 r;
  Alcotest.check_raises "cycle at the loop" (Dfg.Cycle r) (fun () ->
      ignore (Dfg.topo_order g));
  checkb "validate names it" true (has_cycle_error g)

let digraph_out_of_range () =
  checkb "raises" true
    (match dfg_of_edges 1 [ (5, 0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let digraph_growth () =
  let g = Dfg.create () in
  let last = ref (Dfg.input g "x") in
  for _ = 1 to 99 do
    last := Dfg.rotate g !last 1
  done;
  checki "nodes" 100 (Dfg.node_count g);
  check ints "chain order" (List.init 100 Fun.id) (Dfg.topo_order g);
  check_oracle "oracle" g

let topo_chain () =
  let g = dfg_of_edges 5 [ (3, 1); (1, 4); (4, 0); (0, 2) ] in
  check ints "chain order" [ 3; 1; 4; 0; 2 ] (Dfg.topo_order g);
  check_oracle "oracle" g

let respects_edges n edges order =
  let pos = Array.make n (-1) in
  List.iteri (fun i v -> pos.(v) <- i) order;
  List.length order = n && List.for_all (fun (u, v) -> pos.(u) < pos.(v)) edges

let topo_respects_edges () =
  let edges = [ (0, 2); (1, 2); (2, 3); (2, 4); (3, 5); (4, 5) ] in
  let g = dfg_of_edges 6 edges in
  checkb "every edge forward" true (respects_edges 6 edges (Dfg.topo_order g));
  check_oracle "oracle" g

let topo_cycle () =
  let g = dfg_of_edges 4 [ (3, 0); (0, 1); (1, 2); (2, 0) ] in
  checkb "validate names it" true (has_cycle_error g);
  Alcotest.check_raises "witness" (Dfg.Cycle 0) (fun () -> ignore (Dfg.topo_order g));
  check_oracle "oracle" g

let topo_random_prop =
  qcheck ~count:50 "random DAGs topo-sort correctly"
    QCheck2.Gen.(pair (int_range 2 30) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      (* Forward edges under a random relabelling: a DAG whose arguments
         point both ways in id order. *)
      let label = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Ckks.Prng.int rng ~bound:(i + 1) in
        let t = label.(i) in
        label.(i) <- label.(j);
        label.(j) <- t
      done;
      let edges =
        List.init (2 * n) (fun _ ->
            let u = Ckks.Prng.int rng ~bound:(n - 1) in
            let v = u + 1 + Ckks.Prng.int rng ~bound:(n - u - 1) in
            (label.(u), label.(v)))
      in
      let g = dfg_of_edges n edges in
      let order = Dfg.topo_order g in
      respects_edges n edges order && sorted topo_oracle g = Ok order)

(* Random DFGs from the builders: repeated arguments ([mul_cc a a],
   [add_cc a a]), killed nodes, an input that a third of the operands
   read (hundreds of users on the larger graphs), and operands retargeted
   with [set_arg] onto nodes created later.  [cyclic] then closes a cycle
   by pointing a node at one of its users. *)
let random_topo_dfg (seed, size, cyclic) =
  let rng = Ckks.Prng.create (Int64.of_int seed) in
  let g = Dfg.create () in
  let hub = Dfg.input g "x" in
  let k = Dfg.const g "k" in
  let pool = Array.make (size + 1) hub and len = ref 1 in
  let pick () =
    if Ckks.Prng.int rng ~bound:3 = 0 then hub else pool.(Ckks.Prng.int rng ~bound:!len)
  in
  for _ = 1 to size do
    let a = pick () in
    let v =
      match Ckks.Prng.int rng ~bound:6 with
      | 0 -> Some (Dfg.mul_cc g a a)
      | 1 -> Some (Dfg.add_cc g a (if Ckks.Prng.int rng ~bound:2 = 0 then a else pick ()))
      | 2 -> Some (Dfg.rotate g a 1)
      | 3 -> Some (Dfg.add_cp g a k)
      | 4 -> Some (Dfg.mul_cc g a (pick ()))
      | _ ->
          Dfg.kill g (Dfg.rotate g a 2);
          None
    in
    Option.iter
      (fun v ->
        pool.(!len) <- v;
        incr len)
      v
  done;
  for _ = 1 to size / 8 do
    let later = Dfg.rotate g hub 3 in
    let user = pool.(1 + Ckks.Prng.int rng ~bound:(max 1 (!len - 1))) in
    if user <> hub then Dfg.set_arg g ~user ~arg_index:0 later
  done;
  Dfg.set_outputs g [ pool.(!len - 1) ];
  (if cyclic then
     let with_user =
       List.filter
         (fun (n : Dfg.node) -> n.Dfg.args <> [||] && n.Dfg.users <> [])
         (Dfg.live_nodes g)
     in
     match with_user with
     | [] -> ()
     | l ->
         let n = List.nth l (Ckks.Prng.int rng ~bound:(List.length l)) in
         Dfg.set_arg g ~user:n.Dfg.id ~arg_index:0 (List.hd n.Dfg.users));
  g

let topo_matches_oracle =
  qcheck ~count:60 "topo_order equals the list-based Kahn on random DFGs"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 800) bool)
    (fun params ->
      let g = random_topo_dfg params in
      let _, _, cyclic = params in
      let got = sorted Dfg.topo_order g in
      got = sorted topo_oracle g
      && (cyclic || Result.is_ok got)
      && has_cycle_error g = Result.is_error got)

let topo_paper_models () =
  List.iter
    (fun (model : Nn.Model.t) ->
      let g = (Nn.Lowering.lower model).Nn.Lowering.dfg in
      check_oracle (model.Nn.Model.name ^ " input") g;
      let managed, _ = Resbm.Driver.compile Ckks.Params.default g in
      check_oracle (model.Nn.Model.name ^ " managed") managed)
    [ Nn.Model.resnet20; Nn.Model.squeezenet; Nn.Model.lenet5 ]

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

(* --- Flat Dinic against the list-of-records oracle ------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_arc (a : Graphlib.Maxflow.flow_arc) (b : Graphlib.Maxflow.flow_arc) =
  a.Graphlib.Maxflow.fa_src = b.Graphlib.Maxflow.fa_src
  && a.Graphlib.Maxflow.fa_dst = b.Graphlib.Maxflow.fa_dst
  && same_bits a.Graphlib.Maxflow.fa_cap b.Graphlib.Maxflow.fa_cap
  && same_bits a.Graphlib.Maxflow.fa_flow b.Graphlib.Maxflow.fa_flow

let same_cert (a : Graphlib.Maxflow.certificate) (b : Graphlib.Maxflow.certificate) =
  a.Graphlib.Maxflow.cert_nodes = b.Graphlib.Maxflow.cert_nodes
  && a.Graphlib.Maxflow.cert_source = b.Graphlib.Maxflow.cert_source
  && a.Graphlib.Maxflow.cert_sink = b.Graphlib.Maxflow.cert_sink
  && same_bits a.Graphlib.Maxflow.cert_value b.Graphlib.Maxflow.cert_value
  && a.Graphlib.Maxflow.cert_source_side = b.Graphlib.Maxflow.cert_source_side
  && Array.length a.Graphlib.Maxflow.cert_arcs = Array.length b.Graphlib.Maxflow.cert_arcs
  && Array.for_all2 same_arc a.Graphlib.Maxflow.cert_arcs b.Graphlib.Maxflow.cert_arcs

(* One solve of [net] under a fresh profile against the oracle on the
   same arcs: value, source side, cut edges, certificate (arcs and
   flows), stats and the [maxflow.*] counters, all bit for bit.  [None]
   when they agree, else what differs. *)
let against_oracle net ~nodes arcs ~source ~sink =
  let p = Obs.Profile.create () in
  let cut, cert =
    Obs.with_profile p (fun () ->
        let cut = Graphlib.Maxflow.min_cut net ~source ~sink in
        (cut, Graphlib.Maxflow.certificate net ~source ~sink cut))
  in
  let o_cut, o_cert, o_stats = maxflow_oracle ~nodes arcs ~source ~sink in
  let counter = Obs.Profile.counter p in
  let checks =
    [
      ("value", same_bits cut.Graphlib.Maxflow.value o_cut.Graphlib.Maxflow.value);
      ("source side", cut.Graphlib.Maxflow.source_side = o_cut.Graphlib.Maxflow.source_side);
      ("cut edges", cut.Graphlib.Maxflow.edges = o_cut.Graphlib.Maxflow.edges);
      ("certificate", same_cert cert o_cert);
      ("stats", Graphlib.Maxflow.stats net = o_stats);
      ("maxflow.runs", counter "maxflow.runs" = 1);
      ("maxflow.bfs_phases", counter "maxflow.bfs_phases" = o_stats.Graphlib.Maxflow.bfs_phases);
      ("maxflow.aug_paths", counter "maxflow.aug_paths" = o_stats.Graphlib.Maxflow.aug_paths);
      ( "maxflow.cut_edges",
        counter "maxflow.cut_edges" = List.length o_cut.Graphlib.Maxflow.edges );
    ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

(* Random networks: parallel and antiparallel copies of drawn arcs,
   self-loops, zero and infinite capacities, sometimes no arc into the
   sink; then re-solves of the same topology under fresh capacities. *)
let oracle_network_gen =
  let open QCheck2.Gen in
  let cap =
    frequency
      [
        (1, return 0.0);
        (1, return infinity);
        (3, map float_of_int (int_range 1 9));
        (3, float_range 0.0 10.0);
      ]
  in
  let* n = int_range 2 10 in
  let* drawn = list_size (int_range 0 30) (triple (int_bound (n - 1)) (int_bound (n - 1)) cap) in
  let* copies = list_size (int_range 0 6) (triple (int_bound 1000) bool cap) in
  let copies =
    match drawn with
    | [] -> []
    | _ ->
        List.map
          (fun (i, flip, c) ->
            let u, v, _ = List.nth drawn (i mod List.length drawn) in
            if flip then (v, u, c) else (u, v, c))
          copies
  in
  let* cut_off = frequency [ (1, return true); (4, return false) ] in
  let arcs = drawn @ copies in
  let arcs = if cut_off then List.filter (fun (_, v, _) -> v <> n - 1) arcs else arcs in
  let* resolves = list_size (int_range 1 3) (list_repeat (List.length arcs) cap) in
  return (n, arcs, resolves)

let maxflow_matches_oracle =
  qcheck ~count:300 "flat Dinic equals the list-of-records oracle, re-solves included"
    oracle_network_gen (fun (n, arcs, resolves) ->
      let net = Graphlib.Maxflow.create n in
      List.iter (fun (u, v, c) -> Graphlib.Maxflow.add_edge net ~src:u ~dst:v ~cap:c) arcs;
      let solve what arcs =
        match against_oracle net ~nodes:n arcs ~source:0 ~sink:(n - 1) with
        | None -> true
        | Some diff -> QCheck2.Test.fail_reportf "%s: %s differs" what diff
      in
      solve "first solve" arcs
      && List.for_all
           (fun caps ->
             List.iteri (fun e c -> Graphlib.Maxflow.set_capacity net e c) caps;
             solve "re-solve" (List.map2 (fun (u, v, _) c -> (u, v, c)) arcs caps))
           resolves)

(* A snapshot outlives the re-solves after it: the certificate built
   from each solve's snapshot once every re-solve has run equals the one
   exported right after that solve. *)
let snapshot_certificates_outlive_resolves =
  qcheck ~count:300 "a certificate from a snapshot equals the immediate one after re-solves"
    oracle_network_gen (fun (n, arcs, resolves) ->
      let net = Graphlib.Maxflow.create n in
      List.iter (fun (u, v, c) -> Graphlib.Maxflow.add_edge net ~src:u ~dst:v ~cap:c) arcs;
      let source = 0 and sink = n - 1 in
      let solve () =
        let cut = Graphlib.Maxflow.min_cut net ~source ~sink in
        (cut, Graphlib.Maxflow.certificate net ~source ~sink cut, Graphlib.Maxflow.snapshot net)
      in
      let first = solve () in
      let later =
        List.map
          (fun caps ->
            List.iteri (fun e c -> Graphlib.Maxflow.set_capacity net e c) caps;
            solve ())
          resolves
      in
      List.for_all
        (fun (cut, eager, snapshot) ->
          same_cert eager (Graphlib.Maxflow.certificate ~snapshot net ~source ~sink cut))
        (first :: later))

(* Every certificate a paper model's plan carries, rebuilt by
   [of_certificate] and solved again, agrees with the oracle on the
   rebuilt arcs, keeps the arcs as exported, and reproduces the cut's
   value. *)
let of_certificate_round_trips () =
  List.iter
    (fun model ->
      let g = (Nn.Lowering.lower model).Nn.Lowering.dfg in
      let _, r = Resbm.Variants.compile Resbm.Variants.resbm Ckks.Params.default g in
      List.iter
        (fun (e : Resbm.Report.certificate_entry) ->
          let cert = e.Resbm.Report.ce_cert in
          let arcs =
            Array.to_list
              (Array.map
                 (fun (a : Graphlib.Maxflow.flow_arc) ->
                   (a.Graphlib.Maxflow.fa_src, a.Graphlib.Maxflow.fa_dst, a.Graphlib.Maxflow.fa_cap))
                 cert.Graphlib.Maxflow.cert_arcs)
          in
          let net = Graphlib.Maxflow.of_certificate cert in
          let source = cert.Graphlib.Maxflow.cert_source
          and sink = cert.Graphlib.Maxflow.cert_sink in
          let where =
            Printf.sprintf "%s %s region %d" model.Nn.Model.name e.Resbm.Report.ce_pass
              e.Resbm.Report.ce_region
          in
          (match against_oracle net ~nodes:cert.Graphlib.Maxflow.cert_nodes arcs ~source ~sink with
          | None -> ()
          | Some diff -> Alcotest.failf "%s: %s differs from the oracle" where diff);
          let cut = Graphlib.Maxflow.min_cut net ~source ~sink in
          let again = Graphlib.Maxflow.certificate net ~source ~sink cut in
          checkb (where ^ ": arcs as exported") true
            (Array.for_all2
               (fun (a : Graphlib.Maxflow.flow_arc) (b : Graphlib.Maxflow.flow_arc) ->
                 a.Graphlib.Maxflow.fa_src = b.Graphlib.Maxflow.fa_src
                 && a.Graphlib.Maxflow.fa_dst = b.Graphlib.Maxflow.fa_dst
                 && same_bits a.Graphlib.Maxflow.fa_cap b.Graphlib.Maxflow.fa_cap)
               cert.Graphlib.Maxflow.cert_arcs again.Graphlib.Maxflow.cert_arcs);
          check_float ~eps:1e-9 (where ^ ": value") cert.Graphlib.Maxflow.cert_value
            cut.Graphlib.Maxflow.value)
        r.Resbm.Report.certificates)
    Nn.Model.paper_models

let suite =
  [
    case "digraph: basics" digraph_basics;
    case "digraph: duplicate edges ignored" digraph_duplicate_edges;
    case "digraph: self edges rejected" digraph_self_edge;
    case "digraph: out-of-range rejected" digraph_out_of_range;
    case "digraph: growth" digraph_growth;
    case "topo: chain" topo_chain;
    case "topo: respects edges" topo_respects_edges;
    case "topo: cycle detection" topo_cycle;
    topo_random_prop;
    topo_matches_oracle;
    case "topo: paper models match the oracle" topo_paper_models;
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
    maxflow_matches_oracle;
    case "maxflow: of_certificate round-trips on paper models" of_certificate_round_trips;
    snapshot_certificates_outlive_resolves;
  ]
