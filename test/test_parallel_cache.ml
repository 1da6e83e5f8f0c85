(* The content-addressed plan cache: warm-cache identity on fixtures and
   random graphs, key sensitivity, the incremental region memo, and the
   on-disk tier. *)
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
  checki "one hit per warm compile" !planned s.Resbm.Plan_cache.hits;
  checki "no disk tier" 0 s.Resbm.Plan_cache.disk_hits

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
  let key ?(m = mgr) ?(p = prm) ?(scan = `Full) g =
    Resbm.Plan_cache.key ~config:m.Resbm.Variants.config ~name:m.Resbm.Variants.name
      ~ms_opt:m.Resbm.Variants.ms_opt ~segment_scan:scan p g
  in
  let k0 = key (fig3_poly ()) in
  check Alcotest.string "stable across rebuilds" k0 (key (fig3_poly ()));
  checki "16 hex digits" 16 (String.length k0);
  checkb "params change the key" true (key ~p:(Ckks.Params.with_l_max prm 9) (fig3_poly ()) <> k0);
  checkb "manager identity changes the key" true
    (key ~m:Resbm.Variants.fhelipe (fig3_poly ()) <> k0);
  checkb "ms_opt configuration changes the key" true
    (key ~m:Resbm.Variants.resbm_max (fig3_poly ()) <> k0);
  checkb "segment scan changes the key" true (key ~scan:`Adjacent (fig3_poly ()) <> k0);
  checkb "a different program changes the key" true (key (fig5_program ()) <> k0);
  (* a structural no-op that touches only derived state must not *)
  let g = fig3_poly () in
  let k1 = key g in
  ignore (Dfg.export g);
  check Alcotest.string "export is observation, not mutation" k1 (key g)

(* --- incremental region memo ---------------------------------------------- *)

(* Layered chain whose prefix is identical between the two variants:
   appending a layer must leave the earlier regions' shapes (and so their
   memoised cuts) untouched. *)
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

let memo_reuses_clean_regions () =
  let cache = Resbm.Plan_cache.create () in
  let mgr = Resbm.Variants.resbm in
  ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:3));
  let s1 = Resbm.Plan_cache.stats cache in
  checki "cold compile misses the plan tier" 1 s1.Resbm.Plan_cache.misses;
  checkb "regions were solved and memoised" true (s1.Resbm.Plan_cache.memo_entries > 0);
  (* editing the tail invalidates the full-plan key but not the prefix *)
  ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:4));
  let s2 = Resbm.Plan_cache.stats cache in
  checki "edited program misses the plan tier" 2 s2.Resbm.Plan_cache.misses;
  checkb "clean prefix regions replan from the memo" true
    (s2.Resbm.Plan_cache.memo_hits > s1.Resbm.Plan_cache.memo_hits);
  (* and the incremental result is bit-identical to a memo-free compile *)
  let incremental = Resbm.Variants.compile ~cache mgr prm (layered ~layers:4) in
  let scratch = Resbm.Variants.compile mgr prm (layered ~layers:4) in
  checkb "memo-assisted plan equals the from-scratch plan" true
    (fingerprint incremental = fingerprint scratch)

(* The memo is keyed by id-free shapes compared by equality, so a
   renumbered model replans from the solutions of the original: every
   renumbered region whose shape was solved before is a hit, and the plan
   equals a memo-free compile's.  (Renumbering can reorder a region's
   members or use lists, and so its shape, so not every region hits.) *)
let memo_serves_renumbered_models () =
  let cache = Resbm.Plan_cache.create () in
  let mgr = Resbm.Variants.resbm in
  let g = (Nn.Lowering.lower Nn.Model.resnet20).Nn.Lowering.dfg in
  ignore (Resbm.Variants.compile ~cache mgr prm g);
  let s1 = Resbm.Plan_cache.stats cache in
  let g' = renumber 7 g in
  let warm = Resbm.Variants.compile ~cache mgr prm g' in
  let s2 = Resbm.Plan_cache.stats cache in
  checki "the renumbered program misses the plan tier" 2 s2.Resbm.Plan_cache.misses;
  checkb "renumbered regions replan from the memo" true
    (s2.Resbm.Plan_cache.memo_hits > s1.Resbm.Plan_cache.memo_hits);
  checkb "memo-assisted plan equals the memo-free plan" true
    (fingerprint warm = fingerprint (Resbm.Variants.compile mgr prm g'))

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

(* --- on-disk tier ---------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "resbm_cache" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let disk_tier_survives_processes () =
  with_temp_dir (fun dir ->
      let mgr = Resbm.Variants.resbm in
      let c1 = Resbm.Plan_cache.create ~dir () in
      let cold = Resbm.Variants.compile ~cache:c1 mgr prm (fig3_poly ()) in
      checkb "entry written through to disk" true
        ((Resbm.Plan_cache.stats c1).Resbm.Plan_cache.disk_entries >= 1);
      (* a fresh cache instance models a new process over the same dir *)
      let c2 = Resbm.Plan_cache.create ~dir () in
      let warm = Resbm.Variants.compile ~cache:c2 mgr prm (fig3_poly ()) in
      let s = Resbm.Plan_cache.stats c2 in
      checki "served from the disk tier" 1 s.Resbm.Plan_cache.disk_hits;
      checkb "disk round-trip is bit-identical" true
        (fingerprint warm = fingerprint cold);
      (* clear drops both tiers *)
      Resbm.Plan_cache.clear c2;
      checki "disk tier emptied" 0
        (Resbm.Plan_cache.stats c2).Resbm.Plan_cache.disk_entries)

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
    case "memo replans only dirty regions" memo_reuses_clean_regions;
    case "region shapes localise edits" region_shapes_localise_edits;
    case "disk tier round-trips across cache instances" disk_tier_survives_processes;
    case "lru eviction respects capacity" lru_eviction_is_bounded;
    case "memo replans a renumbered model" memo_serves_renumbered_models;
  ]
