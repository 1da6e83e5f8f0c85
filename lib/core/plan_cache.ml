open Fhe_ir

(* Content-addressed plan cache.

   A compile is a pure function of (program structure, CKKS parameters,
   manager configuration, cost model) — everything else (wall clock,
   profiling) is incidental.  We hash exactly those inputs with FNV-1a
   (64-bit) over a canonical serialisation: live nodes in id order, then
   outputs, then parameter fields, then the manager identity, then a
   fingerprint of the cost-model tables.  The determinism fixes in
   btsplc/plan/region_eval (sorted hashtable drains) are what make "equal
   hash input" imply "equal plan output".

   Two tiers:
   - in-memory LRU of compiled plans (graph + report), exact-key;
   - optional on-disk tier (one JSON file per key) surviving processes,
     whose entries are re-checked on load. *)

(* ---------- FNV-1a ---------- *)

open Fnv

let mix_bool h b = mix_byte h (if b then 1 else 0)
let mix_float h v = mix_int64 h (Int64.bits_of_float v)

let mix_opt_int h = function None -> mix_byte h 0xfe | Some v -> mix_int (mix_byte h 1) v

let mix_kind h (k : Op.kind) =
  match k with
  | Op.Input { name; level; scale_bits } ->
      mix_opt_int (mix_opt_int (mix_string (mix_byte h 0) name) level) scale_bits
  | Op.Const { name } -> mix_string (mix_byte h 1) name
  | Op.Add_cc -> mix_byte h 2
  | Op.Add_cp -> mix_byte h 3
  | Op.Mul_cc -> mix_byte h 4
  | Op.Mul_cp -> mix_byte h 5
  | Op.Rotate k -> mix_int (mix_byte h 6) k
  | Op.Relin -> mix_byte h 7
  | Op.Rescale -> mix_byte h 8
  | Op.Modswitch -> mix_byte h 9
  | Op.Bootstrap t -> mix_int (mix_byte h 10) t


(* ---------- fingerprints ---------- *)

let fingerprint_levels = 24

(* The cost model is compiled in, but hashing its sampled surface means a
   rebuilt binary with different Table 2 numbers cannot resurrect stale
   disk entries. *)
let cost_fingerprint =
  lazy
    (let h = ref Fnv.offset in
     List.iteri
       (fun i op ->
         h := mix_int !h i;
         for level = 0 to fingerprint_levels do
           h := mix_float !h (Ckks.Cost_model.cost op ~level)
         done)
       Ckks.Cost_model.all_ops;
     !h)

let mix_params h (prm : Ckks.Params.t) =
  h
  |> Fun.flip mix_int prm.Ckks.Params.log2_degree
  |> Fun.flip mix_int prm.Ckks.Params.scale_bits
  |> Fun.flip mix_int prm.Ckks.Params.waterline_bits
  |> Fun.flip mix_int prm.Ckks.Params.q0_bits
  |> Fun.flip mix_int prm.Ckks.Params.l_max
  |> Fun.flip mix_int prm.Ckks.Params.input_level
  |> Fun.flip mix_int prm.Ckks.Params.input_scale_bits
  |> Fun.flip mix_int prm.Ckks.Params.bootstrap_depth

let mix_graph h g =
  let h = ref (mix_int h (Dfg.node_count g)) in
  List.iter
    (fun (n : Dfg.node) ->
      h := mix_int !h n.Dfg.id;
      h := mix_kind !h n.Dfg.kind;
      h := mix_int !h n.Dfg.freq;
      h := mix_int !h (Array.length n.Dfg.args);
      Array.iter (fun a -> h := mix_int !h a) n.Dfg.args)
    (Dfg.live_nodes g);
  List.iter (fun o -> h := mix_int !h o) (Dfg.outputs g);
  !h

let smo_tag = function
  | Region_eval.Smo_min_cut -> 0
  | Region_eval.Smo_eva -> 1
  | Region_eval.Smo_pars -> 2

let bts_tag = function Region_eval.Bts_min_cut -> 0 | Region_eval.Bts_region_end -> 1

let key ~(config : Btsmgr.config) ~name ~ms_opt ~segment_scan prm g =
  let h =
    Fnv.offset |> Fun.flip mix_string name
    |> Fun.flip mix_bool config.Btsmgr.min_level_bts
    |> Fun.flip mix_byte (smo_tag config.Btsmgr.smo_mode)
    |> Fun.flip mix_byte (bts_tag config.Btsmgr.bts_mode)
    |> Fun.flip mix_bool config.Btsmgr.price_transits
    |> Fun.flip mix_bool ms_opt
    |> Fun.flip mix_byte (match segment_scan with `Full -> 0 | `Adjacent -> 1)
  in
  let h = mix_params h prm in
  let h = mix_int64 h (Lazy.force cost_fingerprint) in
  hex (mix_graph h g)

(* ---------- the cache ---------- *)

type entry = { e_graph : Dfg.t; e_report : Report.t; mutable e_tick : int }

type t = {
  capacity : int;
  dir : string option;
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable disk_hits : int;
}

let default_capacity = 64

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let create ?(capacity = default_capacity) ?dir () =
  Option.iter mkdir_p dir;
  {
    capacity = max 1 capacity;
    dir;
    tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    disk_hits = 0;
  }

let dir t = t.dir

(* ---------- disk tier ---------- *)

(* Schema 2 added min-cut optimality certificates; schema 3 added the
   flow-node -> DFG-node mapping per certificate (the basis of the
   explain subcommand's counterfactual rationale).  Entries with an older
   schema are treated as misses and recompiled rather than served without
   their evidence. *)
let disk_schema = 3

let path_of t k = Option.map (fun d -> Filename.concat d (k ^ ".json")) t.dir

let kind_json (k : Op.kind) =
  let open Obs.Json in
  match k with
  | Op.Input { name; level; scale_bits } ->
      Obj
        [
          ("op", String "input");
          ("name", String name);
          ("level", match level with Some l -> Int l | None -> Null);
          ("scale", match scale_bits with Some s -> Int s | None -> Null);
        ]
  | Op.Const { name } -> Obj [ ("op", String "const"); ("name", String name) ]
  | Op.Add_cc -> Obj [ ("op", String "add_cc") ]
  | Op.Add_cp -> Obj [ ("op", String "add_cp") ]
  | Op.Mul_cc -> Obj [ ("op", String "mul_cc") ]
  | Op.Mul_cp -> Obj [ ("op", String "mul_cp") ]
  | Op.Rotate k -> Obj [ ("op", String "rotate"); ("k", Int k) ]
  | Op.Relin -> Obj [ ("op", String "relin") ]
  | Op.Rescale -> Obj [ ("op", String "rescale") ]
  | Op.Modswitch -> Obj [ ("op", String "modswitch") ]
  | Op.Bootstrap t -> Obj [ ("op", String "bootstrap"); ("target", Int t) ]

let kind_of_json j =
  let open Obs.Json in
  let str k = match member k j with Some (String s) -> Some s | _ -> None in
  let int k = match member k j with Some (Int i) -> Some i | _ -> None in
  match str "op" with
  | Some "input" ->
      Option.map
        (fun name -> Op.Input { name; level = int "level"; scale_bits = int "scale" })
        (str "name")
  | Some "const" -> Option.map (fun name -> Op.Const { name }) (str "name")
  | Some "add_cc" -> Some Op.Add_cc
  | Some "add_cp" -> Some Op.Add_cp
  | Some "mul_cc" -> Some Op.Mul_cc
  | Some "mul_cp" -> Some Op.Mul_cp
  | Some "rotate" -> Option.map (fun k -> Op.Rotate k) (int "k")
  | Some "relin" -> Some Op.Relin
  | Some "rescale" -> Some Op.Rescale
  | Some "modswitch" -> Some Op.Modswitch
  | Some "bootstrap" -> Option.map (fun t -> Op.Bootstrap t) (int "target")
  | _ -> None

(* Infinite capacities are legal in certificates (source arcs, grouped
   producer arcs); Json.to_string prints every non-finite float as [null],
   so encode them explicitly as Null and decode Null back to [infinity]. *)
let cap_json c = if Float.is_finite c then Obs.Json.Float c else Obs.Json.Null

let cap_of_json = function
  | Obs.Json.Float f -> Some f
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Null -> Some infinity
  | _ -> None

let cert_json (c : Graphlib.Maxflow.certificate) =
  let open Obs.Json in
  Obj
    [
      ("n", Int c.Graphlib.Maxflow.cert_nodes);
      ("s", Int c.Graphlib.Maxflow.cert_source);
      ("t", Int c.Graphlib.Maxflow.cert_sink);
      ("v", Float c.Graphlib.Maxflow.cert_value);
      ( "side",
        List
          (Array.to_list
             (Array.map (fun b -> Bool b) c.Graphlib.Maxflow.cert_source_side)) );
      ( "arcs",
        List
          (Array.to_list
             (Array.map
                (fun (a : Graphlib.Maxflow.flow_arc) ->
                  List
                    [
                      Int a.Graphlib.Maxflow.fa_src;
                      Int a.Graphlib.Maxflow.fa_dst;
                      cap_json a.Graphlib.Maxflow.fa_cap;
                      Float a.Graphlib.Maxflow.fa_flow;
                    ])
                c.Graphlib.Maxflow.cert_arcs)) );
    ]

let cert_of_json j =
  let open Obs.Json in
  let int k = match member k j with Some (Int i) -> Some i | _ -> None in
  let ( let* ) = Option.bind in
  let* cert_nodes = int "n" in
  let* cert_source = int "s" in
  let* cert_sink = int "t" in
  let* cert_value =
    match member "v" j with
    | Some (Float f) -> Some f
    | Some (Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let* side =
    let* raw = match member "side" j with Some (List l) -> Some l | _ -> None in
    List.fold_right
      (fun x acc -> match (x, acc) with Bool b, Some tl -> Some (b :: tl) | _ -> None)
      raw (Some [])
  in
  let* arcs =
    let* raw = match member "arcs" j with Some (List l) -> Some l | _ -> None in
    List.fold_right
      (fun x acc ->
        let* tl = acc in
        match x with
        | List [ Int fa_src; Int fa_dst; cap; Float fa_flow ] ->
            let* fa_cap = cap_of_json cap in
            Some ({ Graphlib.Maxflow.fa_src; fa_dst; fa_cap; fa_flow } :: tl)
        | List [ Int fa_src; Int fa_dst; cap; Int flow ] ->
            let* fa_cap = cap_of_json cap in
            Some
              ({ Graphlib.Maxflow.fa_src; fa_dst; fa_cap; fa_flow = float_of_int flow }
              :: tl)
        | _ -> None)
      raw (Some [])
  in
  Some
    {
      Graphlib.Maxflow.cert_nodes;
      cert_source;
      cert_sink;
      cert_value;
      cert_source_side = Array.of_list side;
      cert_arcs = Array.of_list arcs;
    }

let entry_json k (g : Dfg.t) (r : Report.t) =
  let open Obs.Json in
  let nodes, outs = Dfg.export g in
  Obj
    [
      ("schema", Int disk_schema);
      ("key", String k);
      ("manager", String r.Report.manager);
      ("compile_ms", Float r.Report.compile_ms);
      ("latency_ms", Float r.Report.latency_ms);
      ("repair_bootstraps", Int r.Report.repair_bootstraps);
      ("ms_opt_hoists", Int r.Report.ms_opt_hoists);
      ("region_count", Int r.Report.region_count);
      ( "segments",
        List (List.map (fun (s, d) -> List [ Int s; Int d ]) r.Report.segments) );
      ( "region_of",
        List (Array.to_list (Array.map (fun x -> Int x) r.Report.region_of)) );
      ( "fallbacks",
        List
          (List.map
             (fun (tier, reason) -> List [ String tier; String reason ])
             r.Report.fallbacks) );
      ( "certificates",
        List
          (List.map
             (fun (e : Report.certificate_entry) ->
               Obj
                 [
                   ("pass", String e.Report.ce_pass);
                   ("region", Int e.Report.ce_region);
                   ("cert", cert_json e.Report.ce_cert);
                   ( "node_of",
                     List
                       (Array.to_list (Array.map (fun x -> Int x) e.Report.ce_node_of))
                   );
                 ])
             r.Report.certificates) );
      ("outputs", List (List.map (fun o -> Int o) outs));
      ( "nodes",
        List
          (Array.to_list
             (Array.map
                (fun en ->
                  Obj
                    [
                      ("k", kind_json en.Dfg.ex_kind);
                      ( "a",
                        List (Array.to_list (Array.map (fun a -> Int a) en.Dfg.ex_args))
                      );
                      ("f", Int en.Dfg.ex_freq);
                      ("d", Bool en.Dfg.ex_dead);
                    ])
                nodes)) );
    ]

let entry_of_json j =
  let open Obs.Json in
  let int k = match member k j with Some (Int i) -> Some i | _ -> None in
  let float_ k =
    match member k j with Some (Float f) -> Some f | Some (Int i) -> Some (float_of_int i) | _ -> None
  in
  let str k = match member k j with Some (String s) -> Some s | _ -> None in
  let list k = match member k j with Some (List l) -> Some l | _ -> None in
  let ( let* ) = Option.bind in
  let* schema = int "schema" in
  if schema <> disk_schema then None
  else
    let* manager = str "manager" in
    let* compile_ms = float_ "compile_ms" in
    let* latency_ms = float_ "latency_ms" in
    let* repair_bootstraps = int "repair_bootstraps" in
    let* ms_opt_hoists = int "ms_opt_hoists" in
    let* region_count = int "region_count" in
    let* segments =
      let* raw = list "segments" in
      List.fold_right
        (fun x acc ->
          match (x, acc) with
          | List [ Int s; Int d ], Some tl -> Some ((s, d) :: tl)
          | _ -> None)
        raw (Some [])
    in
    let* region_of =
      let* raw = list "region_of" in
      List.fold_right
        (fun x acc -> match (x, acc) with Int i, Some tl -> Some (i :: tl) | _ -> None)
        raw (Some [])
    in
    let* fallbacks =
      let* raw = list "fallbacks" in
      List.fold_right
        (fun x acc ->
          match (x, acc) with
          | List [ String t; String r ], Some tl -> Some ((t, r) :: tl)
          | _ -> None)
        raw (Some [])
    in
    let* certificates =
      let* raw = list "certificates" in
      List.fold_right
        (fun x acc ->
          let* tl = acc in
          let* pass =
            match member "pass" x with Some (String s) -> Some s | _ -> None
          in
          let* region = match member "region" x with Some (Int i) -> Some i | _ -> None in
          let* cert = Option.bind (member "cert" x) cert_of_json in
          let* node_of =
            let* raw = match member "node_of" x with Some (List l) -> Some l | _ -> None in
            List.fold_right
              (fun e acc ->
                match (e, acc) with Int i, Some tl -> Some (i :: tl) | _ -> None)
              raw (Some [])
          in
          Some
            ({
               Report.ce_pass = pass;
               ce_region = region;
               ce_cert = cert;
               ce_node_of = Array.of_list node_of;
             }
            :: tl))
        raw (Some [])
    in
    let* outputs =
      let* raw = list "outputs" in
      List.fold_right
        (fun x acc -> match (x, acc) with Int i, Some tl -> Some (i :: tl) | _ -> None)
        raw (Some [])
    in
    let* nodes =
      let* raw = list "nodes" in
      List.fold_right
        (fun nj acc ->
          let* tl = acc in
          let* kind = Option.bind (member "k" nj) (fun kj -> kind_of_json kj) in
          let* args =
            match member "a" nj with
            | Some (List l) ->
                List.fold_right
                  (fun x acc ->
                    match (x, acc) with Int i, Some tl -> Some (i :: tl) | _ -> None)
                  l (Some [])
            | _ -> None
          in
          let* freq = match member "f" nj with Some (Int f) -> Some f | _ -> None in
          let* dead = match member "d" nj with Some (Bool d) -> Some d | _ -> None in
          Some
            ({
               Dfg.ex_kind = kind;
               ex_args = Array.of_list args;
               ex_freq = freq;
               ex_dead = dead;
             }
            :: tl))
        raw (Some [])
    in
    (* A file naming a node that is not there is unreadable, not fatal. *)
    let* g =
      match Dfg.import (Array.of_list nodes, outputs) with
      | g -> Some g
      | exception Invalid_argument _ -> None
    in
    let report =
      {
        Report.manager;
        compile_ms;
        latency_ms;
        stats = Stats.collect g;
        segments;
        repair_bootstraps;
        ms_opt_hoists;
        profile = Obs.Profile.create ();
        region_count;
        region_of = Array.of_list region_of;
        fallbacks;
        certificates;
      }
    in
    Some (g, report)

let disk_write t k g r =
  match path_of t k with
  | None -> ()
  | Some path -> (
      try
        Option.iter mkdir_p t.dir;
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Obs.Json.to_string (entry_json k g r)));
        Sys.rename tmp path
      with Sys_error _ -> ())

let disk_load t k =
  match path_of t k with
  | None -> None
  | Some path -> (
      match
        if Sys.file_exists path then (
          try
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> Some (really_input_string ic (in_channel_length ic)))
          with Sys_error _ | End_of_file -> None)
        else None
      with
      | None -> None
      | Some body -> (
          match Obs.Json.of_string body with
          | Error _ -> None
          | Ok j -> entry_of_json j))

(* ---------- memory tier ---------- *)

(* Caller holds the lock.  O(entries) eviction scan — capacities are
   small, and Det keeps the victim deterministic on tick ties. *)
let evict_locked t =
  while Hashtbl.length t.tbl > t.capacity do
    let victim =
      List.fold_left
        (fun acc (k, e) ->
          match acc with
          | Some (_, best) when best.e_tick <= e.e_tick -> acc
          | _ -> Some (k, e))
        None
        (Det.sorted_bindings t.tbl)
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1;
        Obs.log_debug ~event:"plan_cache.evicted" "evicted the least-recently-used plan"
  done

let insert_mem t k g r =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.tbl k) then begin
        t.tick <- t.tick + 1;
        Hashtbl.add t.tbl k { e_graph = g; e_report = r; e_tick = t.tick };
        evict_locked t
      end)

let checkout timer (g, (r : Report.t)) =
  ( Dfg.copy g,
    {
      r with
      Report.compile_ms = Obs.Timer.elapsed_ms timer;
      region_of = Array.copy r.Report.region_of;
    } )

(* The report fields a loaded entry serves that the graph determines: the
   static latency, one region in [-1, region_count) per node, and
   segments chaining region 0 to the last region in increasing
   [(src, dst)] pairs, as the BTSMGR backtrack emits them. *)
let report_refutation prm g (r : Report.t) =
  let count = r.Report.region_count in
  let latency = Fhe_ir.Latency.total prm g in
  let rec chain from = function
    | [] -> from = max 0 (count - 1)
    | (src, dst) :: rest -> src = from && src < dst && dst < count && chain dst rest
  in
  if not (Int64.equal (Int64.bits_of_float latency) (Int64.bits_of_float r.Report.latency_ms))
  then
    Some
      (Analysis.Diag.error "cache-latency" "stored latency %.17g ms, the graph's is %.17g ms"
         r.Report.latency_ms latency)
  else if
    Array.length r.Report.region_of <> Fhe_ir.Dfg.node_count g
    || Array.exists (fun x -> x < -1 || x >= count) r.Report.region_of
  then
    Some
      (Analysis.Diag.error "cache-regions"
         "region_of does not give each of the %d nodes a region in [-1, %d)"
         (Fhe_ir.Dfg.node_count g) count)
  else if not (chain 0 r.Report.segments) then
    Some
      (Analysis.Diag.error "cache-segments"
         "segments do not chain region 0 to region %d in increasing pairs" (count - 1))
  else None

(* The first refutation of a loaded entry, if any: the pass verifier's
   errors on the managed graph, then the report fields it determines,
   then every stored min-cut certificate's.  A disk file is outside this
   process's control, so it is served only when all of them re-check. *)
let disk_refutation prm g (r : Report.t) =
  let first_error = List.find_opt (fun d -> d.Analysis.Diag.severity = Analysis.Diag.Error) in
  match first_error (Analysis.Verify.run prm g) with
  | Some _ as d -> d
  | None -> (
      match report_refutation prm g r with
      | Some _ as d -> d
      | None ->
          List.find_map
            (fun (e : Report.certificate_entry) ->
              first_error
                (Analysis.Certify.check ~pass:e.Report.ce_pass ~region:e.Report.ce_region
                   e.Report.ce_cert))
            r.Report.certificates)

let find t prm k =
  let timer = Obs.Timer.start () in
  let mem =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl k with
        | Some e ->
            t.tick <- t.tick + 1;
            e.e_tick <- t.tick;
            t.hits <- t.hits + 1;
            Some (e.e_graph, e.e_report)
        | None -> None)
  in
  match mem with
  | Some hit -> Some (checkout timer hit)
  | None -> (
      let miss () =
        Mutex.protect t.lock (fun () -> t.misses <- t.misses + 1);
        None
      in
      match disk_load t k with
      | None -> miss ()
      | Some (g, r) -> (
          match disk_refutation prm g r with
          | Some d ->
              Obs.log_warn ~event:"plan_cache.disk_rejected"
                ~fields:
                  [
                    ("key", Obs.Json.String k);
                    ("rule", Obs.Json.String d.Analysis.Diag.rule);
                    ("message", Obs.Json.String d.Analysis.Diag.message);
                  ]
                "disk entry refuted, recompiling";
              miss ()
          | None ->
              Mutex.protect t.lock (fun () ->
                  t.hits <- t.hits + 1;
                  t.disk_hits <- t.disk_hits + 1);
              insert_mem t k g r;
              Obs.log_debug ~event:"plan_cache.disk_hit" "plan loaded from the disk tier";
              Some (checkout timer (g, r))))

let store t k g (r : Report.t) =
  let g = Dfg.copy g in
  let r = { r with Report.region_of = Array.copy r.Report.region_of } in
  insert_mem t k g r;
  disk_write t k g r

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  disk_hits : int;
  disk_entries : int;
}

let disk_entries t =
  match t.dir with
  | None -> 0
  | Some d ->
      if Sys.file_exists d && Sys.is_directory d then
        Array.fold_left
          (fun acc f -> if Filename.check_suffix f ".json" then acc + 1 else acc)
          0 (Sys.readdir d)
      else 0

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        capacity = t.capacity;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        disk_hits = t.disk_hits;
        disk_entries = disk_entries t;
      })

let clear t =
  Mutex.protect t.lock (fun () -> Hashtbl.reset t.tbl);
  match t.dir with
  | None -> ()
  | Some d ->
      if Sys.file_exists d && Sys.is_directory d then
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".json" then
              try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
          (Sys.readdir d)

let stats_json (s : stats) =
  let open Obs.Json in
  Obj
    [
      ("entries", Int s.entries);
      ("capacity", Int s.capacity);
      ("hits", Int s.hits);
      ("misses", Int s.misses);
      ("evictions", Int s.evictions);
      ("disk_hits", Int s.disk_hits);
      ("disk_entries", Int s.disk_entries);
    ]
