open Fhe_ir

type rule =
  | Redundant_modswitch
  | Rescale_before_bootstrap
  | Bootstrap_above_minimal
  | Unused_node
  | Relin_placement
  | Noise_margin

let all =
  [
    Redundant_modswitch;
    Rescale_before_bootstrap;
    Bootstrap_above_minimal;
    Unused_node;
    Relin_placement;
    Noise_margin;
  ]

let rule_id = function
  | Redundant_modswitch -> "redundant-modswitch"
  | Rescale_before_bootstrap -> "rescale-before-bootstrap"
  | Bootstrap_above_minimal -> "bootstrap-above-minimal"
  | Unused_node -> "unused-node"
  | Relin_placement -> "relin-placement"
  | Noise_margin -> "noise-margin"

let of_rule_id id = List.find_opt (fun r -> rule_id r = id) all

let is_bootstrap g id =
  match (Dfg.node g id).Dfg.kind with Op.Bootstrap _ -> true | _ -> false

(* A modswitch {!Passes.Ms_opt} could hoist.  A modswitch consumed
   exclusively by bootstraps is also redundant: the bootstrap resets the
   level it just dropped. *)
let redundant_modswitch prm info g =
  let outs = Dfg.outputs g in
  List.concat_map
    (fun n ->
      if n.Dfg.kind <> Op.Modswitch then []
      else begin
        let m = n.Dfg.id in
        let discarded =
          n.Dfg.users <> []
          && List.for_all (is_bootstrap g) n.Dfg.users
          && not (List.mem m outs)
        in
        if discarded then
          [
            Diag.hint ~node:m ~hint:"drop the modswitch; bootstrap from the higher level"
              "redundant-modswitch"
              "modswitch feeds only bootstrap nodes, which discard the dropped level";
          ]
        else
          match Passes.Ms_opt.hoist_target prm (Array.get info) g m with
          | Some target ->
              [
                Diag.hint ~node:m ~hint:"compile with ms_opt to hoist it" "redundant-modswitch"
                  "modswitch can be hoisted above %s node %d to run it one level lower"
                  (Op.name (Dfg.node g n.Dfg.args.(0)).Dfg.kind)
                  target;
              ]
          | None -> []
      end)
    (Dfg.live_nodes g)

let rescale_before_bootstrap g =
  let outs = Dfg.outputs g in
  List.concat_map
    (fun n ->
      if
        n.Dfg.kind = Op.Rescale
        && n.Dfg.users <> []
        && List.for_all (is_bootstrap g) n.Dfg.users
        && not (List.mem n.Dfg.id outs)
      then
        [
          Diag.hint ~node:n.Dfg.id
            ~hint:"bootstrap directly from the unrescaled value"
            "rescale-before-bootstrap"
            "rescale feeds only bootstrap nodes, which reset scale and level; its latency \
             and the level it burns are wasted";
        ]
      else [])
    (Dfg.live_nodes g)

(* Minimal capacity floor of a ciphertext: the smallest level at which its
   scale still fits the modulus (Ckks.Evaluator.capacity_ok). *)
let level_floor prm info id =
  let q = prm.Ckks.Params.scale_bits in
  max (((info.(id).Scale_check.scale_bits + q - 1) / q) - 1) 0

(* A bootstrap targeting level t when the remaining cone — everything
   reachable before the next bootstrap — keeps a positive level margin
   everywhere could have targeted t - margin (Algorithm 5's objective). *)
let bootstrap_above_minimal prm info g =
  List.concat_map
    (fun n ->
      match n.Dfg.kind with
      | Op.Bootstrap target when target > 1 ->
          let b = n.Dfg.id in
          let visited = Hashtbl.create 16 in
          let slack = ref (info.(b).Scale_check.level - level_floor prm info b) in
          let rec walk id =
            if not (Hashtbl.mem visited id) then begin
              Hashtbl.add visited id ();
              List.iter
                (fun u ->
                  if (not (is_bootstrap g u)) && Op.produces_ct (Dfg.node g u).Dfg.kind
                  then begin
                    slack := min !slack (info.(u).Scale_check.level - level_floor prm info u);
                    walk u
                  end)
                (Dfg.succs g id)
            end
          in
          walk b;
          let minimal = max 1 (target - max !slack 0) in
          if minimal < target then
            [
              Diag.hint ~node:b
                ~hint:
                  (Printf.sprintf
                     "retarget to L%d and re-legalise; every extra level slows the cone"
                     minimal)
                "bootstrap-above-minimal"
                "bootstrap targets L%d but its cone only needs L%d before the next \
                 bootstrap or output"
                target minimal;
            ]
          else []
      | _ -> [])
    (Dfg.live_nodes g)

let unused_node g =
  let outs = Dfg.outputs g in
  List.concat_map
    (fun n ->
      match n.Dfg.kind with
      | (Op.Input _ | Op.Const _) when n.Dfg.users = [] && not (List.mem n.Dfg.id outs) ->
          [
            Diag.warning ~node:n.Dfg.id ~hint:"remove it, or run dead-code elimination"
              "unused-node" "%s has no uses" (Op.name n.Dfg.kind);
          ]
      | _ -> [])
    (Dfg.live_nodes g)

let relin_placement g =
  let outs = Dfg.outputs g in
  List.concat_map
    (fun n ->
      if n.Dfg.kind <> Op.Mul_cc then []
      else begin
        let relins =
          List.filter (fun u -> (Dfg.node g u).Dfg.kind = Op.Relin) n.Dfg.users
        in
        match relins with
        | [] ->
            [
              Diag.warning ~node:n.Dfg.id ~hint:"relinearise the product"
                "relin-placement" "mul_cc result is never relinearised%s"
                (if List.mem n.Dfg.id outs then " (size-3 program output)" else "");
            ]
        | [ _ ] -> []
        | _ ->
            [
              Diag.warning ~node:n.Dfg.id ~hint:"share a single relin between the uses"
                "relin-placement" "mul_cc is relinearised %d times"
                (List.length relins);
            ]
      end)
    (Dfg.live_nodes g)

let noise_margin ?magnitude_cap ?const_magnitude ~min_precision_bits prm g =
  let r = Noise_check.analyse ?magnitude_cap ?const_magnitude prm g in
  if r.Noise_check.output_precision_bits < min_precision_bits then
    [
      Diag.warning
        ~hint:"raise scale_bits or bootstrap more often to restore precision"
        "noise-margin" "predicted output precision %.1f bits is below the %.1f-bit margin"
        r.Noise_check.output_precision_bits min_precision_bits;
    ]
  else []

(* Source-level determinism lint: planner code must never drain a
   hashtable in physical (hash) order — OCaml hashtable iteration order
   depends on insertion history and the random seed, and a planner
   decision taken in that order silently breaks plan reproducibility and
   the cold/warm bit-identity contract.  Planner sources drain
   through [Det] instead (det.ml itself is the sanctioned wrapper and is
   exempt, as is any line carrying a [det-ok] marker). *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Like [contains], but only at an identifier boundary: a needle preceded
   by an identifier character is part of a longer name (e.g. the stdlib
   call [Format.pp_print_string] is not a raw stdout print). *)
let contains_call hay needle =
  let nh = String.length hay and nn = String.length needle in
  let ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '\''
  in
  let rec at i =
    i + nn <= nh
    && ((String.sub hay i nn = needle && (i = 0 || not (ident hay.[i - 1])))
       || at (i + 1))
  in
  nn > 0 && at 0

(* Stdout calls library code must never make: reports flow through the
   structured channels (Json writers, Obs.Log, formatters handed in by
   the caller), and a stray print interleaves with the CLI's own stdout
   contract (e.g. [--json] output piped to a file).  Built by
   concatenation so this scanner never flags its own source. *)
let stdout_callees =
  List.map (( ^ ) "print_") [ "endline"; "string"; "newline"; "char"; "int"; "float" ]
  @ List.map (fun m -> m ^ ".printf") [ "Printf"; "Format" ]

let scan_planner_file ~rel path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let diags = ref [] in
          let lnum = ref 0 in
          (try
             while true do
               let line = input_line ic in
               incr lnum;
               if not (contains line "det-ok") then
                 List.iter
                   (fun callee ->
                     if contains line ("Hashtbl." ^ callee) then
                       diags :=
                         Diag.warning
                           ~hint:
                             "drain through Det.sorted_bindings / \
                              Det.iter_sorted, or mark the line (* det-ok *)"
                           "unsorted-hashtbl-drain"
                           "%s:%d: Hashtbl.%s visits bindings in \
                            nondeterministic hash order inside planner code"
                           rel !lnum callee
                         :: !diags)
                   [ "iter"; "fold" ];
               if not (contains line "log-ok") then
                 match List.find_opt (contains_call line) stdout_callees with
                 | Some callee ->
                     diags :=
                       Diag.warning
                         ~hint:
                           "emit through Obs.log_* / Json writers / a \
                            caller-supplied formatter, or mark the line (* \
                            log-ok *)"
                         "stdout-in-lib"
                         "%s:%d: %s writes raw stdout inside library code"
                         rel !lnum callee
                       :: !diags
                 | None -> ()
             done
           with End_of_file -> ());
          List.rev !diags)

let scan_planner_sources ~dir =
  (* Recursive, deterministic walk: entries sorted at every level, build
     directories skipped, messages relative to the scanned root. *)
  let rec walk ~rel dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        List.concat_map
          (fun e ->
            let path = Filename.concat dir e in
            let rel = if rel = "" then e else Filename.concat rel e in
            if (try Sys.is_directory path with Sys_error _ -> false) then
              if e = "_build" || String.length e > 0 && e.[0] = '.' then []
              else walk ~rel path
            else if Filename.check_suffix e ".ml" && e <> "det.ml" then
              scan_planner_file ~rel path
            else [])
          (List.sort compare (Array.to_list entries))
  in
  walk ~rel:"" dir

let run ?(rules = all) ?(min_precision_bits = 8.0) ?magnitude_cap ?const_magnitude prm g =
  let info = Scale_check.infer prm g in
  let lint rule =
    Obs.span ("lint." ^ rule_id rule) @@ fun () ->
    match rule with
    | Redundant_modswitch -> redundant_modswitch prm info g
    | Rescale_before_bootstrap -> rescale_before_bootstrap g
    | Bootstrap_above_minimal -> bootstrap_above_minimal prm info g
    | Unused_node -> unused_node g
    | Relin_placement -> relin_placement g
    | Noise_margin -> noise_margin ?magnitude_cap ?const_magnitude ~min_precision_bits prm g
  in
  Diag.sort (List.concat_map lint rules)
