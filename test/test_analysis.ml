(* The static-analysis subsystem: diagnostics, the pass verifier, the lint
   suite, and verify-each compilation across every bundled model. *)

open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* --- Diag ------------------------------------------------------------------ *)

let diag_pp () =
  let d = Analysis.Diag.error ~node:12 ~hint:"fix it" "scale" "level %d too low" 3 in
  check Alcotest.string "pp" "node 12: scale: level 3 too low"
    (Format.asprintf "%a" Analysis.Diag.pp d);
  check Alcotest.string "pp_verbose"
    "error: node 12: scale: level 3 too low (hint: fix it)"
    (Format.asprintf "%a" Analysis.Diag.pp_verbose d);
  let graph_level = Analysis.Diag.warning "noise-margin" "too noisy" in
  check Alcotest.string "no node prefix" "noise-margin: too noisy"
    (Format.asprintf "%a" Analysis.Diag.pp graph_level)

let diag_sort_and_counts () =
  let ds =
    [
      Analysis.Diag.hint ~node:1 "h" "hint";
      Analysis.Diag.error ~node:9 "e" "err";
      Analysis.Diag.warning ~node:2 "w" "warn";
    ]
  in
  (match Analysis.Diag.sort ds with
  | [ a; b; c ] ->
      checkb "errors first" true (a.Analysis.Diag.severity = Analysis.Diag.Error);
      checkb "then warnings" true (b.Analysis.Diag.severity = Analysis.Diag.Warning);
      checkb "hints last" true (c.Analysis.Diag.severity = Analysis.Diag.Hint)
  | _ -> Alcotest.fail "sort changed the length");
  checki "error count" 1 (Analysis.Diag.count Analysis.Diag.Error ds);
  checkb "has_errors" true (Analysis.Diag.has_errors ds);
  checkb "has_warnings" true (Analysis.Diag.has_warnings ds)

let diag_json () =
  let d = Analysis.Diag.error ~node:3 ~hint:"h" "scale" "msg %d" 7 in
  check Alcotest.string "to_json"
    {|{"rule":"scale","severity":"error","node":3,"message":"msg 7","hint":"h"}|}
    (Obs.Json.to_string (Analysis.Diag.to_json d));
  let bare = Analysis.Diag.hint "r" "m" in
  check Alcotest.string "optional fields omitted"
    {|{"rule":"r","severity":"hint","message":"m"}|}
    (Obs.Json.to_string (Analysis.Diag.to_json bare));
  match Analysis.Diag.list_to_json [ d; bare ] with
  | Obs.Json.Obj fields ->
      checkb "diagnostics field" true (List.mem_assoc "diagnostics" fields);
      checkb "errors count" true (List.assoc "errors" fields = Obs.Json.Int 1);
      checkb "hints count" true (List.assoc "hints" fields = Obs.Json.Int 1)
  | _ -> Alcotest.fail "list_to_json is not an object"

(* --- Verify ---------------------------------------------------------------- *)

let rule_fires rule ds = List.exists (fun d -> d.Analysis.Diag.rule = rule) ds

let verify_clean_managed () =
  let managed, _ = Resbm.Variants.(compile resbm) prm (fig1_block ()) in
  let ds = Analysis.Verify.run prm managed in
  checkb "no errors on a managed graph" false (Analysis.Diag.has_errors ds);
  checkb "no warnings either" false (Analysis.Diag.has_warnings ds)

let verify_unmanaged_scale_errors () =
  (* no rescales: the final AddCC joins 2^168 with 2^112 — Table 1 rejects *)
  let ds = Analysis.Verify.run prm (fig3_poly ()) in
  checkb "scale rule fires" true (rule_fires "scale" ds);
  checkb "errors reported" true (Analysis.Diag.has_errors ds)

let verify_gates_on_wellformed () =
  (* a ciphertext in a plaintext slot: structurally broken, so the strict
     scale propagation must not run (it would fault on the malformed arg) *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cp g x (Dfg.const g "c") in
  Dfg.set_outputs g [ m ];
  Dfg.set_arg g ~user:m ~arg_index:1 x;
  let ds = Analysis.Verify.run prm g in
  checkb "wellformed fires" true (rule_fires "wellformed" ds);
  List.iter
    (fun d -> check Alcotest.string "only wellformed runs" "wellformed" d.Analysis.Diag.rule)
    ds

let verify_bootstrap_target_range () =
  let bad target =
    let g = Dfg.create () in
    let x = Dfg.input g "x" in
    let b = Dfg.bootstrap g ~target_level:target x in
    Dfg.set_outputs g [ b ];
    (* scale:false — the target range is checked even on pre-management
       graphs *)
    Analysis.Verify.run ~scale:false prm g
  in
  checkb "target 0 rejected" true (rule_fires "bootstrap-target" (bad 0));
  checkb "target l_max+1 rejected" true
    (rule_fires "bootstrap-target" (bad (prm.Ckks.Params.l_max + 1)));
  checkb "target 1 fine" false (rule_fires "bootstrap-target" (bad 1))

let regions_view (r : Resbm.Region.t) =
  { Analysis.Verify.region_of = r.Resbm.Region.region_of; count = r.Resbm.Region.count }

let verify_region_invariants_hold () =
  let g = fig1_block () in
  let regioned = Resbm.Region.build g in
  let ds = Analysis.Verify.run ~regions:(regions_view regioned) ~scale:false prm g in
  checkb "pre-plan graph satisfies the region invariants" false
    (Analysis.Diag.has_errors ds)

let verify_region_smo_boundary () =
  (* an SMO smuggled in before planning violates RMR *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.modswitch g x in
  let y = Dfg.mul_cc g m m in
  Dfg.set_outputs g [ y ];
  let regioned = Resbm.Region.build g in
  let ds = Analysis.Verify.run ~regions:(regions_view regioned) ~scale:false prm g in
  checkb "region-smo-boundary fires" true (rule_fires "region-smo-boundary" ds)

let verify_region_cover () =
  let g = fig1_block () in
  let regioned = Resbm.Region.build g in
  let view = regions_view regioned in
  view.Analysis.Verify.region_of.(0) <- view.Analysis.Verify.count + 5;
  let ds = Analysis.Verify.run ~regions:view ~scale:false prm g in
  checkb "region-cover fires" true (rule_fires "region-cover" ds)

(* --- Lint fixtures: one seeded bug per rule -------------------------------- *)

let lint_rules ds = List.map (fun d -> d.Analysis.Diag.rule) ds

let lint_redundant_modswitch_hoist () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let r = Dfg.rotate g x 1 in
  let m = Dfg.modswitch g r in
  Dfg.set_outputs g [ m ];
  let ds = Analysis.Lint.run ~rules:[ Analysis.Lint.Redundant_modswitch ] prm g in
  checkb "hoistable modswitch flagged" true (List.mem "redundant-modswitch" (lint_rules ds))

let lint_redundant_modswitch_bootstrap () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.modswitch g x in
  let b = Dfg.bootstrap g ~target_level:8 m in
  Dfg.set_outputs g [ b ];
  let ds = Analysis.Lint.run ~rules:[ Analysis.Lint.Redundant_modswitch ] prm g in
  checkb "modswitch into bootstrap flagged" true
    (List.mem "redundant-modswitch" (lint_rules ds))

let lint_rescale_before_bootstrap () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let rs = Dfg.rescale g x in
  let b = Dfg.bootstrap g ~target_level:8 rs in
  Dfg.set_outputs g [ b ];
  let ds = Analysis.Lint.run ~rules:[ Analysis.Lint.Rescale_before_bootstrap ] prm g in
  checkb "wasted rescale flagged" true (List.mem "rescale-before-bootstrap" (lint_rules ds))

let lint_bootstrap_above_minimal () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let b = Dfg.bootstrap g ~target_level:5 x in
  Dfg.set_outputs g [ b ];
  (* the cone after the bootstrap consumes no levels at all: L1 suffices *)
  let ds = Analysis.Lint.run ~rules:[ Analysis.Lint.Bootstrap_above_minimal ] prm g in
  checkb "overshooting bootstrap flagged" true
    (List.mem "bootstrap-above-minimal" (lint_rules ds))

let lint_unused_node () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let _unused = Dfg.input g "y" in
  let out = Dfg.rotate g x 1 in
  Dfg.set_outputs g [ out ];
  let ds = Analysis.Lint.run ~rules:[ Analysis.Lint.Unused_node ] prm g in
  checkb "unused input flagged" true (List.mem "unused-node" (lint_rules ds))

let lint_relin_placement () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc_raw g x x in
  Dfg.set_outputs g [ m ];
  let ds = Analysis.Lint.run ~rules:[ Analysis.Lint.Relin_placement ] prm g in
  checkb "missing relin flagged" true (List.mem "relin-placement" (lint_rules ds))

let lint_noise_margin () =
  let g = fig3_poly () in
  let strict =
    Analysis.Lint.run ~rules:[ Analysis.Lint.Noise_margin ] ~min_precision_bits:1e6 prm g
  in
  checkb "impossible margin flagged" true (List.mem "noise-margin" (lint_rules strict));
  let lax =
    Analysis.Lint.run ~rules:[ Analysis.Lint.Noise_margin ] ~min_precision_bits:(-1e6) prm
      g
  in
  checkb "trivial margin passes" false (List.mem "noise-margin" (lint_rules lax))

let lint_clean_graph_is_quiet () =
  (* a graph with no seeded bug: no rule should fire *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let out = Dfg.rotate g x 1 in
  Dfg.set_outputs g [ out ];
  let ds =
    Analysis.Lint.run
      ~rules:
        [
          Analysis.Lint.Redundant_modswitch;
          Analysis.Lint.Rescale_before_bootstrap;
          Analysis.Lint.Bootstrap_above_minimal;
          Analysis.Lint.Unused_node;
          Analysis.Lint.Relin_placement;
        ]
      prm g
  in
  checki "no findings" 0 (List.length ds)

let lint_rule_ids_roundtrip () =
  List.iter
    (fun r ->
      match Analysis.Lint.of_rule_id (Analysis.Lint.rule_id r) with
      | Some r' -> checkb "roundtrip" true (r = r')
      | None -> Alcotest.fail "rule id does not roundtrip")
    Analysis.Lint.all

(* The source-level determinism lint: unsorted Hashtbl drains in planner
   code break plan reproducibility, so the scanner must flag them —
   except in det.ml (the sorted-drain implementation itself) and on
   lines deliberately marked det-ok. *)
let lint_source_scan () =
  let dir = Filename.temp_file "resbm_lint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name lines =
    let oc = open_out (Filename.concat dir name) in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      write "bad.ml"
        [
          "let f h = Hashtbl.iter (fun k v -> use k v) h";
          "let g h = Hashtbl.fold (fun k v acc -> k :: acc) h []";
          "let ok h = Hashtbl.iter visit h (* det-ok: singleton table *)";
          "let clean h = Det.iter_sorted visit h";
        ];
      write "det.ml" [ "let iter_sorted f h = Hashtbl.iter f h" ];
      write "notes.txt" [ "Hashtbl.iter in prose is nobody's business" ];
      let diags = Analysis.Lint.scan_planner_sources ~dir in
      checki "two drains flagged" 2 (List.length diags);
      List.iter
        (fun (d : Analysis.Diag.t) ->
          check Alcotest.string "rule id" "unsorted-hashtbl-drain" d.Analysis.Diag.rule;
          checkb "warning severity" true (d.Analysis.Diag.severity = Analysis.Diag.Warning);
          checkb "hint suggests the sorted drain" true (d.Analysis.Diag.hint <> None))
        diags;
      let mentions sub =
        List.exists
          (fun (d : Analysis.Diag.t) ->
            let s = d.Analysis.Diag.message and m = String.length sub in
            let n = String.length s in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0)
          diags
      in
      checkb "iter drain named with its line" true (mentions "bad.ml:1");
      checkb "fold drain named with its line" true (mentions "bad.ml:2");
      checkb "det-ok line suppressed" true (not (mentions "bad.ml:3")));
  checkb "missing directories scan clean" true
    (Analysis.Lint.scan_planner_sources ~dir = [])

(* The library sources themselves must scan clean: the same check the CI
   lint step runs with [--sources lib --deny-warnings]. *)
let lint_source_scan_repo_clean () =
  let dir = Filename.concat Filename.parent_dir_name "lib" in
  checkb "lib/ is present" true (Sys.file_exists (Filename.concat dir "core"));
  check (Alcotest.list Alcotest.string) "no diagnostics" []
    (List.map
       (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.message)
       (Analysis.Lint.scan_planner_sources ~dir))

(* --- Scale_check const handling (satellite regression) --------------------- *)

(* The same program with the shared constant created first vs last: the
   inferred levels and scales of the ciphertext nodes must not depend on
   node numbering (const scales resolve to the minimum wanted scale, not
   the first consumer in topological order). *)
let const_levels_ignore_numbering () =
  let build const_first =
    let g = Dfg.create () in
    let c = if const_first then Some (Dfg.const g "c") else None in
    let x = Dfg.input g "x" in
    let c = match c with Some c -> c | None -> Dfg.const g "c" in
    let m = Dfg.mul_cc g x x in
    let r = Dfg.rescale g m in
    (* the const is wanted at two different scales: 2^56 (add to x) and
       2^56 after rescale of 2^112 — plus a mul_cp consumer *)
    let a1 = Dfg.add_cp g x c in
    let a2 = Dfg.add_cp g r c in
    let p = Dfg.mul_cp g x c in
    Dfg.set_outputs g [ a1; a2; p ];
    let info = Scale_check.infer prm g in
    List.map
      (fun id -> (info.(id).Scale_check.level, info.(id).Scale_check.scale_bits))
      [ a1; a2; p ]
  in
  check
    Alcotest.(list (pair int int))
    "levels independent of const numbering" (build true) (build false)

let malformed_graph_no_maxint_leak () =
  (* a ciphertext wired into a plaintext slot (possible via set_arg, which
     does not re-typecheck) must not get its level clobbered to the const
     sentinel max_int by the const back-patch *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cp g x (Dfg.const g "c") in
  Dfg.set_outputs g [ m ];
  Dfg.set_arg g ~user:m ~arg_index:1 x;
  let info = Scale_check.infer prm g in
  Array.iter
    (fun i ->
      if i.Scale_check.is_ct then
        checkb "ciphertext level is finite" true (i.Scale_check.level < max_int))
    info

(* --- verify-each over every bundled model ---------------------------------- *)

let all_models = Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ]

let verify_each_matrix () =
  List.iter
    (fun model ->
      let lowered = Nn.Lowering.lower model in
      List.iter
        (fun mgr ->
          let label =
            Printf.sprintf "%s/%s" model.Nn.Model.name mgr.Resbm.Variants.name
          in
          let managed, _ =
            try Resbm.Variants.compile ~verify_each:true mgr prm lowered.Nn.Lowering.dfg
            with Resbm.Driver.Verification_failed (pass, ds) ->
              Alcotest.failf "%s: verification failed after %s: %s" label pass
                (Format.asprintf "%a"
                   (Format.pp_print_list Analysis.Diag.pp)
                   (List.filteri (fun i _ -> i < 3) ds))
          in
          let ds = Analysis.Verify.run prm managed in
          checki (label ^ ": zero error diagnostics") 0
            (Analysis.Diag.count Analysis.Diag.Error ds))
        Resbm.Variants.all)
    all_models

let verify_failure_names_the_pass () =
  (* a bootstrap planted in the source graph breaks the RMR pre-plan
     invariant: verify_each must fail fast at region_build *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let b = Dfg.bootstrap g ~target_level:4 x in
  let m = Dfg.mul_cc g b b in
  Dfg.set_outputs g [ m ];
  match Resbm.Driver.compile ~verify_each:true prm g with
  | exception Resbm.Driver.Verification_failed (pass, ds) ->
      check Alcotest.string "offending pass" "region_build" pass;
      checkb "diagnostics attached" true (Analysis.Diag.has_errors ds)
  | _ -> Alcotest.fail "expected Verification_failed"

let random_dfgs_verify_each =
  qcheck ~count:25 "random DFGs compile under verify_each"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      if Dfg.outputs g = [] then true
      else begin
        let managed, _ = Resbm.Variants.(compile ~verify_each:true resbm) prm g in
        not (Analysis.Diag.has_errors (Analysis.Verify.run prm managed))
      end)

let suite =
  [
    case "diag: pretty-printing" diag_pp;
    case "diag: sorting and counting" diag_sort_and_counts;
    case "diag: json encoding" diag_json;
    case "verify: managed graph is clean" verify_clean_managed;
    case "verify: unmanaged graph violates the scale rules" verify_unmanaged_scale_errors;
    case "verify: scale checks gate on well-formedness" verify_gates_on_wellformed;
    case "verify: bootstrap target range" verify_bootstrap_target_range;
    case "verify: region invariants hold pre-plan" verify_region_invariants_hold;
    case "verify: smuggled SMO breaks RMR" verify_region_smo_boundary;
    case "verify: corrupted region cover detected" verify_region_cover;
    case "lint: hoistable modswitch" lint_redundant_modswitch_hoist;
    case "lint: modswitch into bootstrap" lint_redundant_modswitch_bootstrap;
    case "lint: rescale before bootstrap" lint_rescale_before_bootstrap;
    case "lint: bootstrap above minimal" lint_bootstrap_above_minimal;
    case "lint: unused node" lint_unused_node;
    case "lint: relin placement" lint_relin_placement;
    case "lint: noise margin threshold" lint_noise_margin;
    case "lint: clean graph is quiet" lint_clean_graph_is_quiet;
    case "lint: rule ids roundtrip" lint_rule_ids_roundtrip;
    case "lint: source scan flags unsorted hashtbl drains" lint_source_scan;
    case "lint: library sources scan clean" lint_source_scan_repo_clean;
    case "scale_check: const levels ignore numbering" const_levels_ignore_numbering;
    case "scale_check: no max_int leak on malformed graphs" malformed_graph_no_maxint_leak;
    case "driver: verify-each across all models and managers" verify_each_matrix;
    case "driver: verification failure names the pass" verify_failure_names_the_pass;
    random_dfgs_verify_each;
  ]
