(* Certification checks over a managed DFG.  The graph is a DAG with fixed
   input levels, so each forward fact is one fold in [Dfg.topo_order] and
   liveness is one fold in reverse: each node's scale and level re-derived
   from Table 1, modulus fit of the noise model, and def-use liveness. *)

open Fhe_ir

(* ------------------------------------------------------------------ *)
(* Level / scale points.                                               *)
(* ------------------------------------------------------------------ *)

(* Re-derives the lenient Scale_check propagation (Table 1 with
   clamping).  Constants are plaintexts: their encoding scale is the
   waterline for multiplications and the ciphertext's scale for additions,
   so consumers never read a constant's own entry beyond [is_ct]. *)
let transfer (prm : Ckks.Params.t) (pt : Scale_check.info array) (node : Dfg.node) =
  let q = prm.scale_bits and qw = prm.waterline_bits in
  let arg i = pt.(node.args.(i)) in
  let ct_operand () =
    let a = arg 0 in
    if a.is_ct || Array.length node.args < 2 then a
    else
      let b = arg 1 in
      if b.is_ct then b else a
  in
  (* Level of a binary ct operation: the min over its ct operands. *)
  let join_level (a : Scale_check.info) (b : Scale_check.info) =
    match (a.is_ct, b.is_ct) with
    | true, true -> min a.level b.level
    | true, false -> a.level
    | false, true -> b.level
    | false, false -> 0
  in
  let ct scale_bits level = { Scale_check.scale_bits; level; is_ct = true } in
  match node.kind with
  | Op.Input { level; scale_bits; _ } ->
      ct
        (Option.value scale_bits ~default:prm.input_scale_bits)
        (Option.value level ~default:prm.input_level)
  | Op.Const _ -> { Scale_check.scale_bits = qw; level = 0; is_ct = false }
  | Op.Add_cc -> ct (ct_operand ()).scale_bits (join_level (arg 0) (arg 1))
  | Op.Add_cp -> { (ct_operand ()) with is_ct = true }
  | Op.Mul_cc ->
      let a = arg 0 and b = arg 1 in
      ct (a.scale_bits + b.scale_bits) (join_level a b)
  | Op.Mul_cp ->
      let a = ct_operand () in
      ct (a.scale_bits + qw) a.level
  | Op.Rotate _ | Op.Relin -> { (arg 0) with is_ct = true }
  | Op.Rescale ->
      let a = arg 0 in
      ct (max (a.scale_bits - q) 1) (max (a.level - 1) 0)
  | Op.Modswitch ->
      let a = arg 0 in
      ct a.scale_bits (max (a.level - 1) 0)
  | Op.Bootstrap target -> ct q target

(* An entry the fold never computes — a dead node, read only as the
   argument of a malformed graph — is a level-0 plaintext at the
   waterline. *)
let derive (prm : Ckks.Params.t) g =
  let pt =
    Array.make (Dfg.node_count g)
      { Scale_check.scale_bits = prm.waterline_bits; level = 0; is_ct = false }
  in
  List.iter (fun id -> pt.(id) <- transfer prm pt (Dfg.node g id)) (Dfg.topo_order g);
  pt

let check_levels ~(scales : Scale_check.info array) prm g =
  let pt = derive prm g in
  let ds = ref [] in
  let err ~node rule fmt = Format.kasprintf (fun m -> ds := Diag.error ~node rule "%s" m :: !ds) fmt in
  List.iter
    (fun (n : Dfg.node) ->
      let id = n.id in
      if Op.produces_ct n.kind then begin
        let v = pt.(id) in
        if not (Ckks.Evaluator.capacity_ok prm ~scale_bits:v.scale_bits ~level:v.level) then
          err ~node:id "absint-capacity" "capacity overflow: scale 2^%d at level %d"
            v.scale_bits v.level;
        (* A dead operand (malformed graph) carries no level to judge. *)
        (match n.kind with
        | Op.Rescale | Op.Modswitch when not (Dfg.node g n.args.(0)).dead ->
            let a = pt.(n.args.(0)) in
            if a.level < 1 then
              err ~node:id "absint-level" "level underflow: operand at level %d" a.level
        | _ -> ());
        (* The concrete lenient propagation must equal the re-derived
           point — the cross-check of two independent readings of
           Table 1. *)
        let c = scales.(id) in
        if c.is_ct && (c.scale_bits <> v.scale_bits || c.level <> v.level) then
          err ~node:id "absint-diverged" "concrete (2^%d, L%d) differs from derived (2^%d, L%d)"
            c.scale_bits c.level v.scale_bits v.level
      end)
    (Dfg.live_nodes g);
  Diag.sort !ds

(* ------------------------------------------------------------------ *)
(* Noise fit.                                                          *)
(* ------------------------------------------------------------------ *)

(* Headroom the encoding needs on top of the scaled signal: sign bit plus
   rounding conventions — small, but not zero (a full-capacity scale with
   magnitude exactly 1.0 is legal for the evaluator). *)
let encoding_slack_bits = 2.0

let check_noise ~(scales : Scale_check.info array) prm g =
  let per_node = (Noise_check.analyse ~scales prm g).Noise_check.per_node in
  let q = prm.Ckks.Params.scale_bits and q0 = prm.Ckks.Params.q0_bits in
  let ds = ref [] in
  let is_output = Array.make (Dfg.node_count g) false in
  List.iter (fun o -> is_output.(o) <- true) (Dfg.outputs g);
  (* Modulus-fit is a cannot-prove finding, not a refutation: the model
     is a worst-case magnitude bound (on deep circuits it is orders of
     magnitude above the run — {!Fhe_ir.Noise_check.check_trace}'s own
     tolerance is two orders), and scale-capacity fit is already proven
     by {!check_levels}.  Summarised as one graph-level warning naming
     the worst node.  Error severity is reserved for a NaN estimate. *)
  let unproven = ref 0 and worst_node = ref (-1) and worst_bits = ref neg_infinity in
  let worst_modulus = ref 0 in
  List.iter
    (fun (n : Dfg.node) ->
      let id = n.id in
      if Op.produces_ct n.kind then begin
        let { Noise_check.magnitude = mag; noise } = per_node.(id) in
        let s = scales.(id).Scale_check.scale_bits and l = scales.(id).Scale_check.level in
        if Float.is_nan mag || Float.is_nan noise then
          ds :=
            Diag.error ~node:id "absint-noise-nan" "noise bound is NaN (mag %g, noise %g)" mag
              noise
            :: !ds
        else begin
          (* Scaled signal plus noise fitting the RNS modulus chain
             q0 * q^level at this level. *)
          let modulus_bits = float_of_int (q0 + (l * q)) in
          let signal_bits =
            if mag +. noise <= 0.0 then neg_infinity
            else Float.log2 (mag +. noise) +. float_of_int s
          in
          if signal_bits > modulus_bits +. encoding_slack_bits then begin
            incr unproven;
            if signal_bits -. modulus_bits > !worst_bits then begin
              worst_bits := signal_bits -. modulus_bits;
              worst_node := id;
              worst_modulus := q0 + (l * q)
            end
          end
        end;
        if is_output.(id) && noise >= mag && mag > 0.0 then
          ds :=
            Diag.warning ~node:id "absint-precision"
              "output noise bound %g reaches the signal bound %g" noise mag
            :: !ds
      end)
    (Dfg.live_nodes g);
  if !unproven > 0 then
    ds :=
      Diag.warning ~node:!worst_node "absint-noise-overflow"
        "cannot prove modulus fit for %d ciphertext%s under the worst-case noise bound \
         (worst: node %d needs %.1f bits over its %d-bit modulus, slack %.0f)"
        !unproven
        (if !unproven = 1 then "" else "s")
        !worst_node !worst_bits !worst_modulus encoding_slack_bits
      :: !ds;
  Diag.sort !ds

(* ------------------------------------------------------------------ *)
(* Liveness.                                                           *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

type liveness = { live_in : Int_set.t array; live_out : Int_set.t array }

let liveness g =
  let n = Dfg.node_count g in
  let live_in = Array.make n Int_set.empty and live_out = Array.make n Int_set.empty in
  List.iter
    (fun id ->
      let node = Dfg.node g id in
      let after =
        List.fold_left (fun acc u -> Int_set.union acc live_in.(u)) Int_set.empty node.users
      in
      let uses =
        Array.fold_left
          (fun acc a ->
            if Op.produces_ct (Dfg.node g a).Dfg.kind then Int_set.add a acc else acc)
          Int_set.empty node.args
      in
      live_out.(id) <- after;
      live_in.(id) <- Int_set.union uses (Int_set.remove id after))
    (List.rev (Dfg.topo_order g));
  { live_in; live_out }
