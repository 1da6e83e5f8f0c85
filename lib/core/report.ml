type certificate_entry = {
  ce_pass : string;
  ce_region : int;
  ce_cert : Graphlib.Maxflow.certificate;
  ce_node_of : int array;
}

type t = {
  manager : string;
  compile_ms : float;
  latency_ms : float;
  stats : Fhe_ir.Stats.t;
  segments : (int * int) list;
  repair_bootstraps : int;
  ms_opt_hoists : int;
  profile : Obs.Profile.t;
  region_count : int;
  region_of : int array;
  certificates : certificate_entry list;
}

let region_of_node t id =
  if id >= 0 && id < Array.length t.region_of then t.region_of.(id) else -1

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s: compiled in %.3f ms, estimated latency %.1f ms@,%a@,segments: %s%s%s@]"
    t.manager t.compile_ms t.latency_ms Fhe_ir.Stats.pp t.stats
    (String.concat " " (List.map (fun (s, d) -> Printf.sprintf "[%d,%d]" s d) t.segments))
    (if t.repair_bootstraps > 0 then
       Printf.sprintf " (+%d repair bootstraps)" t.repair_bootstraps
     else "")
    (if t.ms_opt_hoists > 0 then
       Printf.sprintf " (%d modswitch hoists)" t.ms_opt_hoists
     else "");
  let phases = List.filter (fun s -> s.Obs.Profile.depth = 0) (Obs.Profile.spans t.profile) in
  if phases <> [] then begin
    Format.fprintf ppf "@,phases:";
    List.iter
      (fun s -> Format.fprintf ppf " %s %.3fms" s.Obs.Profile.name s.Obs.Profile.dur_ms)
      phases
  end

let to_json t =
  let open Obs.Json in
  Obj
    [
      ("manager", String t.manager);
      ("compile_ms", Float t.compile_ms);
      ("latency_ms", Float t.latency_ms);
      ("region_count", Int t.region_count);
      ("ms_opt_hoists", Int t.ms_opt_hoists);
      ("repair_bootstraps", Int t.repair_bootstraps);
      ( "segments",
        List (List.map (fun (s, d) -> List [ Int s; Int d ]) t.segments) );
      ( "stats",
        Obj
          [
            ("nodes", Int t.stats.Fhe_ir.Stats.nodes);
            ("bootstrap_count", Int t.stats.Fhe_ir.Stats.bootstrap_count);
            ( "bootstrap_levels",
              List
                (List.map
                   (fun (l, c) -> List [ Int l; Int c ])
                   t.stats.Fhe_ir.Stats.bootstrap_levels) );
            ("executed_rescales", Int t.stats.Fhe_ir.Stats.executed_rescales);
            ("executed_modswitches", Int t.stats.Fhe_ir.Stats.executed_modswitches);
            ("max_depth", Int t.stats.Fhe_ir.Stats.max_depth);
          ] );
      ("certificates", Int (List.length t.certificates));
      ("profile", Obs.Profile.to_json t.profile);
    ]
