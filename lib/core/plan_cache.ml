open Fhe_ir

(* Content-addressed plan cache: an in-memory LRU of compiled plans
   (graph + report), exact-key.

   Within one process a compile is a pure function of (program
   structure, CKKS parameters, manager configuration) — the cost model is
   fixed, and everything else (wall clock, profiling) is incidental.  We
   hash exactly those inputs with FNV-1a (64-bit) over a canonical
   serialisation: the manager identity, then parameter fields, then live
   nodes in id order, then outputs.  The determinism fixes in
   btsplc/plan/region_eval (sorted hashtable drains) are what make "equal
   hash input" imply "equal plan output". *)

(* ---------- FNV-1a ---------- *)

open Fnv

let mix_bool h b = mix_byte h (if b then 1 else 0)

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

let key ~(config : Btsmgr.config) ~name ~ms_opt prm g =
  let h =
    Fnv.offset |> Fun.flip mix_string name
    |> Fun.flip mix_bool config.Btsmgr.min_level_bts
    |> Fun.flip mix_byte (smo_tag config.Btsmgr.smo_mode)
    |> Fun.flip mix_byte (bts_tag config.Btsmgr.bts_mode)
    |> Fun.flip mix_bool config.Btsmgr.price_transits
    |> Fun.flip mix_bool ms_opt
  in
  hex (mix_graph (mix_params h prm) g)

(* ---------- the cache ---------- *)

type entry = { e_graph : Dfg.t; e_report : Report.t; mutable e_tick : int }

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

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

let checkout timer (g, (r : Report.t)) =
  ( Dfg.copy g,
    {
      r with
      Report.compile_ms = Obs.Timer.elapsed_ms timer;
      region_of = Array.copy r.Report.region_of;
    } )

let find t k =
  let timer = Obs.Timer.start () in
  let hit =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl k with
        | Some e ->
            t.tick <- t.tick + 1;
            e.e_tick <- t.tick;
            t.hits <- t.hits + 1;
            Some (e.e_graph, e.e_report)
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  Option.map (checkout timer) hit

let store t k g (r : Report.t) =
  let g = Dfg.copy g in
  let r = { r with Report.region_of = Array.copy r.Report.region_of } in
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.tbl k) then begin
        t.tick <- t.tick + 1;
        Hashtbl.add t.tbl k { e_graph = g; e_report = r; e_tick = t.tick };
        evict_locked t
      end)

type stats = { entries : int; capacity : int; hits : int; misses : int; evictions : int }

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        capacity = t.capacity;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })
