(* Certification's noise check over a managed DFG: one pass over the
   live nodes, checking {!Fhe_ir.Noise_check}'s worst-case bound against
   the RNS modulus chain. *)

open Fhe_ir

(* Headroom the encoding needs on top of the scaled signal: sign bit plus
   rounding conventions — small, but not zero (a full-capacity scale with
   magnitude exactly 1.0 is legal for the evaluator). *)
let encoding_slack_bits = 2.0

let check_noise prm g =
  let scales = Scale_check.infer prm g in
  let per_node = (Noise_check.analyse ~scales prm g).Noise_check.per_node in
  let q = prm.Ckks.Params.scale_bits and q0 = prm.Ckks.Params.q0_bits in
  let ds = ref [] in
  let is_output = Array.make (Dfg.node_count g) false in
  List.iter (fun o -> is_output.(o) <- true) (Dfg.outputs g);
  (* Modulus-fit is a cannot-prove finding, not a refutation: the model
     is a worst-case magnitude bound (on deep circuits it is orders of
     magnitude above the run — {!Fhe_ir.Noise_check.check_trace}'s own
     tolerance is two orders), and scale-capacity fit is already proven
     by the strict Table 1 rules (Verify's "scale").  Summarised as one
     graph-level warning naming the worst node.  Error severity is reserved for a NaN estimate. *)
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
