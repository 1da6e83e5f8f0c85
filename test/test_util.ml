(* Shared helpers for the test suite. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  (* deterministic generator state: property failures must reproduce *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5EED; Hashtbl.hash name |])
    (QCheck2.Test.make ~count ~name gen prop)

(* --- Small DFG builders ------------------------------------------------ *)

open Fhe_ir

(* a3*x^3 + a1*x — the Figure 3 polynomial. *)
let fig3_poly () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let x2 = Dfg.mul_cc g x x in
  let x3 = Dfg.mul_cc g x2 x in
  let a3x3 = Dfg.mul_cp g x3 (Dfg.const g "a3") in
  let a1x = Dfg.mul_cp g x (Dfg.const g "a1") in
  let out = Dfg.add_cc g a3x3 a1x in
  Dfg.set_outputs g [ out ];
  g

(* The simplified ResNet block of Figure 1: two 3-tap convolutions around
   a cubic approximate ReLU, combined with the input by a final MulCC. *)
let conv g name v =
  let t0 = Dfg.mul_cp g v (Dfg.const g (name ^ "_w0")) in
  let t1 = Dfg.mul_cp g (Dfg.rotate g v (-1)) (Dfg.const g (name ^ "_w1")) in
  let t2 = Dfg.mul_cp g (Dfg.rotate g v 1) (Dfg.const g (name ^ "_w2")) in
  Dfg.add_cp g (Dfg.add_cc g (Dfg.add_cc g t0 t1) t2) (Dfg.const g (name ^ "_b"))

let fig1_block () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let u = conv g "conv1" x in
  let u2 = Dfg.mul_cc g u u in
  let u3 = Dfg.mul_cc g u2 u in
  let c3u3 = Dfg.mul_cp g u3 (Dfg.const g "c3") in
  let c1u = Dfg.mul_cp g u (Dfg.const g "c1") in
  let relu = Dfg.add_cc g c3u3 c1u in
  let y = conv g "conv2" relu in
  let out = Dfg.mul_cc g y x in
  Dfg.set_outputs g [ out ];
  g

(* The Figure 5 program: y = a3*x^3 and z = a4*((a1*x)^2 + y^4), written
   naively (shared subexpressions not reused) as the paper's example. *)
let fig5_program () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let x2 = Dfg.mul_cc g x x in
  let x3 = Dfg.mul_cc g x2 x in
  let y = Dfg.mul_cp g x3 (Dfg.const g "a3") in
  let a1x = Dfg.mul_cp g x (Dfg.const g "a1") in
  let a1x2 = Dfg.mul_cc g a1x a1x in
  let y2 = Dfg.mul_cc g y y in
  let y4 = Dfg.mul_cc g y2 y2 in
  let sum = Dfg.add_cc g a1x2 y4 in
  let z = Dfg.mul_cp g sum (Dfg.const g "a4") in
  Dfg.set_outputs g [ z ];
  g

(* Deterministic constant payloads for interpreting the hand-built
   graphs. *)
let const_env ~dim name =
  let rng = Ckks.Prng.create (Int64.of_int (Hashtbl.hash name)) in
  Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-0.4) ~hi:0.4)

let input_env ~dim seed =
  let rng = Ckks.Prng.create seed in
  Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-1.0) ~hi:1.0)

(* Random legal management-free DFGs for property tests: layered graphs of
   ct operations whose depth stays below the given bound. *)
let random_dfg_gen ~max_nodes ~max_depth =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* node_budget = int_range 4 max_nodes in
  return (seed, node_budget, max_depth)

let build_random_dfg (seed, node_budget, max_depth) =
  let rng = Ckks.Prng.create (Int64.of_int seed) in
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  (* pool of (node, depth) candidates *)
  let pool = ref [ (x, 0) ] in
  let pick () =
    let l = !pool in
    List.nth l (Ckks.Prng.int rng ~bound:(List.length l))
  in
  let counter = ref 0 in
  for _ = 1 to node_budget do
    incr counter;
    let a, da = pick () in
    let choice = Ckks.Prng.int rng ~bound:5 in
    let node, depth =
      match choice with
      | 0 when da < max_depth -> (Dfg.mul_cc g a a, da + 1)
      | 1 when da < max_depth ->
          (Dfg.mul_cp g a (Dfg.const g (Printf.sprintf "c%d" !counter)), da + 1)
      | 2 ->
          let b, db = pick () in
          if db = da then (Dfg.add_cc g a b, da)
          else (Dfg.rotate g a 1, da)
      | 3 -> (Dfg.rotate g a ((Ckks.Prng.int rng ~bound:5) - 2), da)
      | _ -> (Dfg.add_cp g a (Dfg.const g (Printf.sprintf "k%d" !counter)), da)
    in
    pool := (node, depth) :: !pool
  done;
  (* outputs: all sinks *)
  let sinks =
    List.filter_map
      (fun n ->
        if n.Dfg.users = [] && Op.produces_ct n.Dfg.kind then Some n.Dfg.id else None)
      (Dfg.live_nodes g)
  in
  Dfg.set_outputs g sinks;
  g

(* Everything a compile promises to reproduce bit-for-bit: the managed
   graph's structural snapshot plus every deterministic report field.
   Wall-clock ([compile_ms]) and the profile are explicitly excluded. *)
let fingerprint ((g : Dfg.t), (r : Resbm.Report.t)) =
  ( Dfg.export g,
    r.Resbm.Report.manager,
    r.Resbm.Report.latency_ms,
    r.Resbm.Report.stats,
    r.Resbm.Report.segments,
    r.Resbm.Report.repair_bootstraps,
    r.Resbm.Report.ms_opt_hoists,
    r.Resbm.Report.region_count,
    Array.to_list r.Resbm.Report.region_of,
    r.Resbm.Report.fallbacks )

(* Renumber a graph: map node i to perm(i) for a seeded random
   permutation, rewriting args and outputs.  Plan digests and the region
   memo must not see the difference. *)
let renumber seed g =
  let nodes, outputs = Dfg.export g in
  let n = Array.length nodes in
  let perm = Array.init n (fun i -> i) in
  let st = Random.State.make [| 0xD16E57; seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let nodes' = Array.make n nodes.(0) in
  Array.iteri
    (fun i (x : Dfg.exported_node) ->
      nodes'.(perm.(i)) <-
        { x with Dfg.ex_args = Array.map (fun a -> perm.(a)) x.Dfg.ex_args })
    nodes;
  Dfg.import (nodes', List.map (fun o -> perm.(o)) outputs)

(* --- Slot-level pins ---------------------------------------------------- *)

(* MD5 of every output slot's IEEE bit pattern, in output order: a pin
   that any reordered draw or changed float expression moves. *)
let slots_digest (cts : Ckks.Ciphertext.t list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c : Ckks.Ciphertext.t) ->
      Array.iter
        (fun v -> Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float v)))
        c.Ckks.Ciphertext.slots)
    cts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every NaN slot digests alike whatever noise produced it, so a digest
   pins a run only when its outputs are finite. *)
let slots_finite (cts : Ckks.Ciphertext.t list) =
  List.for_all
    (fun (c : Ckks.Ciphertext.t) -> Array.for_all Float.is_finite c.Ckks.Ciphertext.slots)
    cts

(* ResNet-20 compiled by the resbm manager at l_max 16 with a [dim]-slot
   dataset image and the lowering's constants: (params, managed graph,
   environment, region attribution). *)
let resnet20_env ~dim =
  let prm =
    Ckks.Params.with_l_max { Ckks.Params.default with Ckks.Params.input_level = 16 } 16
  in
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let managed, report = Resbm.Driver.compile prm lowered.Nn.Lowering.dfg in
  let env =
    {
      Fhe_ir.Interp.inputs =
        [
          ( lowered.Nn.Lowering.input_name,
            (Nn.Dataset.images ~seed:3L ~dim ~count:1 ()).(0) );
        ];
      consts = Nn.Lowering.resolver lowered ~dim;
    }
  in
  let region_of id =
    let attr = report.Resbm.Report.region_of in
    if id >= 0 && id < Array.length attr then attr.(id) else -1
  in
  (prm, managed, env, region_of)
