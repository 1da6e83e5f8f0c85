(* The content-addressed plan cache: warm-cache identity on fixtures and
   random graphs, key sensitivity, independence from cache history, and
   LRU eviction. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

let compile_opt ?cache mgr p g =
  match Resbm.Variants.compile ?cache mgr p g with
  | r -> Some r
  | exception Resbm.Btsmgr.No_plan _ -> None

(* --- warm cache ----------------------------------------------------------- *)

let cache_identity_random =
  qcheck ~count:40 "random graphs plan bit-identically cold and warm"
    (random_dfg_gen ~max_nodes:40 ~max_depth:8)
    (fun params ->
      let mgr =
        let all = Resbm.Variants.all in
        List.nth all (Hashtbl.hash params mod List.length all)
      in
      match compile_opt mgr prm (build_random_dfg params) with
      | None -> true
      | Some base -> (
          let cache = Resbm.Plan_cache.create () in
          match compile_opt ~cache mgr prm (build_random_dfg params) with
          | None -> false
          | Some cold ->
              let warm = Resbm.Variants.compile ~cache mgr prm (build_random_dfg params) in
              (Resbm.Plan_cache.stats cache).Resbm.Plan_cache.hits = 1
              && fingerprint cold = fingerprint base
              && fingerprint warm = fingerprint base))

let warm_cache_identity () =
  let cache = Resbm.Plan_cache.create () in
  let planned = ref 0 in
  List.iter
    (fun (mgr : Resbm.Variants.manager) ->
      let g () = fig1_block () in
      match compile_opt ~cache mgr Ckks.Params.fig1 (g ()) with
      | None -> ()
      | Some cold ->
          incr planned;
          let warm = Resbm.Variants.compile ~cache mgr Ckks.Params.fig1 (g ()) in
          checkb
            (mgr.Resbm.Variants.name ^ ": warm compile is bit-identical")
            true
            (fingerprint warm = fingerprint cold))
    Resbm.Variants.all;
  checkb "most managers planned" true (!planned >= 4);
  let s = Resbm.Plan_cache.stats cache in
  checki "one miss per cold attempt" (List.length Resbm.Variants.all)
    s.Resbm.Plan_cache.misses;
  checki "one hit per warm compile" !planned s.Resbm.Plan_cache.hits

let warm_hit_graph_is_private () =
  (* A cached plan must not alias the stored graph: mutating a warm
     result cannot poison later hits. *)
  let cache = Resbm.Plan_cache.create () in
  let mgr = Resbm.Variants.resbm in
  let cold = Resbm.Variants.compile ~cache mgr prm (fig3_poly ()) in
  let warm1, _ = Resbm.Variants.compile ~cache mgr prm (fig3_poly ()) in
  Dfg.set_outputs warm1 [];
  let warm2 = Resbm.Variants.compile ~cache mgr prm (fig3_poly ()) in
  checkb "second hit unaffected by mutation of the first" true
    (fingerprint warm2 = fingerprint cold)

(* --- key sensitivity ------------------------------------------------------ *)

let key_sensitivity () =
  let mgr = Resbm.Variants.resbm in
  let key ?(m = mgr) ?(p = prm) g =
    Resbm.Plan_cache.key ~config:m.Resbm.Variants.config ~name:m.Resbm.Variants.name
      ~ms_opt:m.Resbm.Variants.ms_opt p g
  in
  let k0 = key (fig3_poly ()) in
  check Alcotest.string "stable across rebuilds" k0 (key (fig3_poly ()));
  checki "16 hex digits" 16 (String.length k0);
  checkb "params change the key" true (key ~p:(Ckks.Params.with_l_max prm 9) (fig3_poly ()) <> k0);
  checkb "manager identity changes the key" true
    (key ~m:Resbm.Variants.fhelipe (fig3_poly ()) <> k0);
  checkb "ms_opt configuration changes the key" true
    (key ~m:Resbm.Variants.resbm_max (fig3_poly ()) <> k0);
  checkb "a different program changes the key" true (key (fig5_program ()) <> k0);
  (* a structural no-op that touches only derived state must not *)
  let g = fig3_poly () in
  let k1 = key g in
  ignore (Dfg.export g);
  check Alcotest.string "export is observation, not mutation" k1 (key g)

(* --- cache history ----------------------------------------------------------- *)

(* Layered chain whose prefix is identical between the two variants:
   appending a layer leaves the earlier regions' shapes untouched. *)
let layered ~layers =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let v = ref x in
  for i = 1 to layers do
    v := Dfg.mul_cc g !v !v;
    v := Dfg.mul_cp g !v (Dfg.const g (Printf.sprintf "w%d" i))
  done;
  Dfg.set_outputs g [ !v ];
  g

let lowered model = (Nn.Lowering.lower model).Nn.Lowering.dfg

(* A cache miss plans from scratch: after the cache has compiled
   ResNet-20 (whose region shapes SqueezeNet shares), a SqueezeNet miss
   does the same planner work as a cache-free compile, so the gated work
   counters do not depend on what the cache saw before. *)
let miss_counters_ignore_cache_history () =
  List.iter
    (fun (mgr : Resbm.Variants.manager) ->
      let cache = Resbm.Plan_cache.create () in
      ignore (Resbm.Variants.compile ~cache mgr prm (lowered Nn.Model.resnet20));
      let counters (_, (r : Resbm.Report.t)) = Obs.Profile.counters r.Resbm.Report.profile in
      let shared = Resbm.Variants.compile ~cache mgr prm (lowered Nn.Model.squeezenet) in
      let fresh = Resbm.Variants.compile mgr prm (lowered Nn.Model.squeezenet) in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        (mgr.Resbm.Variants.name ^ ": SqueezeNet counters after ResNet-20")
        (counters fresh) (counters shared);
      checkb (mgr.Resbm.Variants.name ^ ": same plan") true
        (fingerprint shared = fingerprint fresh))
    Resbm.Variants.all

(* Shapes are id-free and local: appending a layer keeps every earlier
   region's shape, a repeated layer shares one interned shape, and
   shifting every node id leaves the shapes unchanged. *)
let region_shapes_localise_edits () =
  let r3 = Resbm.Region.build (layered ~layers:3) in
  let r4 = Resbm.Region.build (layered ~layers:4) in
  let shape = Resbm.Region.shape and same = Resbm.Region.Shape.equal in
  checkb "partitions are non-trivial" true (r3.Resbm.Region.count >= 4);
  checkb "every region keeps its shape across the tail edit" true
    (List.for_all
       (fun r -> same (shape r3 r) (shape r4 r))
       (List.init r3.Resbm.Region.count Fun.id));
  checkb "a repeated layer shares one physical shape" true (shape r4 2 == shape r4 4);
  let shifted =
    let g = Dfg.create () in
    ignore (Dfg.const g "unused");
    let x = Dfg.input g "x" in
    let v = ref x in
    for i = 1 to 3 do
      v := Dfg.mul_cc g !v !v;
      v := Dfg.mul_cp g !v (Dfg.const g (Printf.sprintf "w%d" i))
    done;
    Dfg.set_outputs g [ !v ];
    Resbm.Region.build g
  in
  checkb "shifted ids leave the shapes unchanged" true
    (List.for_all
       (fun r -> same (shape r3 r) (shape shifted r))
       (List.init (r3.Resbm.Region.count - 1) (fun r -> r + 1)))

let lru_eviction_is_bounded () =
  let cache = Resbm.Plan_cache.create ~capacity:2 () in
  let mgr = Resbm.Variants.resbm in
  List.iter
    (fun l -> ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:l)))
    [ 1; 2; 3; 4 ];
  let s = Resbm.Plan_cache.stats cache in
  checki "capacity respected" 2 s.Resbm.Plan_cache.entries;
  checki "evictions counted" 2 s.Resbm.Plan_cache.evictions;
  (* the most recent entry is still warm *)
  ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:4));
  checki "newest entry survived" (s.Resbm.Plan_cache.hits + 1)
    (Resbm.Plan_cache.stats cache).Resbm.Plan_cache.hits

let suite =
  [
    cache_identity_random;
    case "warm cache compiles are bit-identical" warm_cache_identity;
    case "warm hits hand out private graphs" warm_hit_graph_is_private;
    case "cache key tracks every compile input" key_sensitivity;
    case "a miss's counters ignore cache history" miss_counters_ignore_cache_history;
    case "region shapes localise edits" region_shapes_localise_edits;
    case "lru eviction respects capacity" lru_eviction_is_bounded;
  ]
