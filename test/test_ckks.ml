open Test_util

(* --- Params ------------------------------------------------------------ *)

let params_defaults () =
  let p = Ckks.Params.default in
  checki "scale" 56 p.Ckks.Params.scale_bits;
  checki "l_max" 16 p.Ckks.Params.l_max;
  checki "slots" 32768 (Ckks.Params.slot_count p);
  checkb "valid" true (Ckks.Params.validate p = Ok ())

let params_fig1 () =
  let p = Ckks.Params.fig1 in
  checki "scale" 40 p.Ckks.Params.scale_bits;
  checki "l_max" 3 p.Ckks.Params.l_max;
  checki "input level" 1 p.Ckks.Params.input_level;
  checkb "valid" true (Ckks.Params.validate p = Ok ())

let params_with_l_max () =
  let p = Ckks.Params.with_l_max Ckks.Params.default 10 in
  checki "l_max replaced" 10 p.Ckks.Params.l_max;
  checki "rest unchanged" 56 p.Ckks.Params.scale_bits

let params_invalid () =
  let bad fields = Ckks.Params.validate fields <> Ok () in
  checkb "zero scale" true (bad { Ckks.Params.default with scale_bits = 0 });
  checkb "waterline above q" true
    (bad { Ckks.Params.default with waterline_bits = 100 });
  checkb "l_max zero" true (bad { Ckks.Params.default with l_max = 0 });
  checkb "negative input level" true (bad { Ckks.Params.default with input_level = -1 })

(* --- Cost model --------------------------------------------------------- *)

let table2_exact_values () =
  let open Ckks.Cost_model in
  (* spot-check the published grid points *)
  check_float "AddCP L0" 0.138 (cost Add_cp ~level:0);
  check_float "AddCC L16" 3.574 (cost Add_cc ~level:16);
  check_float "MulCP L2" 1.175 (cost Mul_cp ~level:2);
  check_float "MulCC L16" 15.638 (cost Mul_cc ~level:16);
  check_float "Rotate L0" 58.422 (cost Rotate ~level:0);
  check_float "Relin L8" 130.493 (cost Relin ~level:8);
  check_float "Rescale L10" 33.792 (cost Rescale ~level:10);
  check_float "Bootstrap L16" 44719.0 (cost Bootstrap ~level:16);
  check_float "Bootstrap L2" 21005.0 (cost Bootstrap ~level:2)

let table2_interpolation () =
  let open Ckks.Cost_model in
  (* odd levels interpolate linearly between neighbours *)
  check_float "AddCC L1" ((0.164 +. 0.548) /. 2.0) (cost Add_cc ~level:1);
  check_float "Rescale L3" ((9.085 +. 15.107) /. 2.0) (cost Rescale ~level:3);
  check_float "Bootstrap L15" ((41582.0 +. 44719.0) /. 2.0) (cost Bootstrap ~level:15)

let table2_modswitch_cheap () =
  let open Ckks.Cost_model in
  checkb "modswitch cheapest" true (cost Modswitch ~level:16 < cost Add_cp ~level:0)

let table2_extrapolation () =
  let open Ckks.Cost_model in
  (* beyond the grid: linear with the last slope *)
  let at16 = cost Mul_cc ~level:16 and at18 = cost Mul_cc ~level:18 in
  checkb "grows beyond 16" true (at18 > at16);
  check_float ~eps:1e-6 "slope" (15.638 +. (15.638 -. 13.053)) at18

(* [cost] reads a table filled once per integer level; the interpolation
   it tabulates, over the grid points [cost] returns at even levels
   0..16 (exact: their interpolation fraction is 0), must agree with it
   bit for bit on and past the table's ends. *)
let table2_tabulated_bit_equal () =
  let open Ckks.Cost_model in
  let interpolated op level =
    match op with
    | Modswitch -> cost Modswitch ~level:0
    | _ ->
        let row = Array.init 9 (fun i -> cost op ~level:(2 * i)) in
        let x = float_of_int (max level 0) /. 2.0 in
        let v =
          if x >= 8.0 then row.(8) +. ((x -. 8.0) *. (row.(8) -. row.(7)))
          else begin
            let i = int_of_float (Float.floor x) in
            let frac = x -. float_of_int i in
            row.(i) +. (frac *. (row.(i + 1) -. row.(i)))
          end
        in
        Float.max v 0.0
  in
  List.iter
    (fun op ->
      for level = -2 to 80 do
        check Alcotest.int64
          (Printf.sprintf "%s L%d" (op_name op) level)
          (Int64.bits_of_float (interpolated op level))
          (Int64.bits_of_float (cost op ~level))
      done)
    all_ops

let table2_nonnegative =
  qcheck ~count:200 "costs are non-negative and defined everywhere"
    QCheck2.Gen.(pair (int_range 0 8) (int_range 0 40))
    (fun (op_idx, level) ->
      let op = List.nth Ckks.Cost_model.all_ops op_idx in
      Ckks.Cost_model.cost op ~level >= 0.0)

let table2_monotone_in_level =
  qcheck ~count:200 "latency grows (weakly) with the level"
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 20))
    (fun (op_idx, level) ->
      let op = List.nth Ckks.Cost_model.all_ops op_idx in
      Ckks.Cost_model.cost op ~level:(level + 1) >= Ckks.Cost_model.cost op ~level -. 1e-9)

(* --- PRNG --------------------------------------------------------------- *)

let prng_deterministic () =
  let a = Ckks.Prng.create 42L and b = Ckks.Prng.create 42L in
  for _ = 1 to 100 do
    check_float "same stream" (Ckks.Prng.float a) (Ckks.Prng.float b)
  done

let prng_seed_sensitivity () =
  let a = Ckks.Prng.create 1L and b = Ckks.Prng.create 2L in
  checkb "different seeds differ" true (Ckks.Prng.int64 a <> Ckks.Prng.int64 b)

let prng_float_range =
  qcheck ~count:200 "floats in [0,1)" QCheck2.Gen.(int_bound 1_000_000) (fun seed ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      let v = Ckks.Prng.float rng in
      v >= 0.0 && v < 1.0)

let prng_int_bound =
  qcheck ~count:200 "ints below bound" QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 50))
    (fun (seed, bound) ->
      let rng = Ckks.Prng.create (Int64.of_int seed) in
      let v = Ckks.Prng.int rng ~bound in
      v >= 0 && v < bound)

let prng_mean () =
  let rng = Ckks.Prng.create 7L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Ckks.Prng.float rng
  done;
  checkb "mean near 0.5" true (Float.abs ((!sum /. float_of_int n) -. 0.5) < 0.02)

let prng_gaussian_moments () =
  let rng = Ckks.Prng.create 11L in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let v = Ckks.Prng.gaussian rng in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  checkb "mean near 0" true (Float.abs (!sum /. float_of_int n) < 0.05);
  checkb "variance near 1" true (Float.abs ((!sq /. float_of_int n) -. 1.0) < 0.1)

(* --- Plaintext ---------------------------------------------------------- *)

let plaintext_quantisation () =
  let pt = Ckks.Plaintext.encode ~scale_bits:8 [| 0.3; -0.7 |] in
  (* quantised to multiples of 2^-8 *)
  Array.iter
    (fun v ->
      let scaled = v *. 256.0 in
      check_float ~eps:1e-9 "on grid" (Float.round scaled) scaled)
    pt.Ckks.Plaintext.slots;
  checkb "error bound" true (pt.Ckks.Plaintext.err <= 1.0 /. 256.0)

let plaintext_re_encode () =
  let pt = Ckks.Plaintext.encode ~scale_bits:8 [| 0.3 |] in
  let pt' = Ckks.Plaintext.re_encode pt ~scale_bits:16 in
  checki "new scale" 16 pt'.Ckks.Plaintext.scale_bits;
  checkb "value close" true (Float.abs (pt'.Ckks.Plaintext.slots.(0) -. 0.3) < 0.01)

(* --- Evaluator: Table 1 semantics --------------------------------------- *)

let prm = Ckks.Params.default

let ev () = Ckks.Evaluator.create ~seed:99L prm

let close ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

let eval_add_cc () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 1.0; 2.0 |] in
  let b = Ckks.Evaluator.encrypt e [| 0.5; -1.0 |] in
  let c = Ckks.Evaluator.add_cc e a b in
  let d = Ckks.Evaluator.decrypt e c in
  checkb "sum" true (close d.(0) 1.5 && close d.(1) 1.0);
  checki "scale preserved" a.Ckks.Ciphertext.scale_bits c.Ckks.Ciphertext.scale_bits;
  checki "level preserved" a.Ckks.Ciphertext.level c.Ckks.Ciphertext.level

let eval_mul_cc_scale_sum () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 0.5 |] in
  let b = Ckks.Evaluator.encrypt e [| 0.25 |] in
  let m = Ckks.Evaluator.mul_cc e a b in
  checki "scales add" (2 * prm.Ckks.Params.scale_bits) m.Ckks.Ciphertext.scale_bits;
  checki "size 3 before relin" 3 m.Ckks.Ciphertext.size;
  let r = Ckks.Evaluator.relin e m in
  checki "size 2 after relin" 2 r.Ckks.Ciphertext.size;
  let d = Ckks.Evaluator.decrypt e r in
  checkb "product" true (close ~eps:1e-4 d.(0) 0.125)

let eval_mul_cp () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 0.5 |] in
  let pt = Ckks.Evaluator.encode e [| 0.5 |] in
  let m = Ckks.Evaluator.mul_cp e a pt in
  checki "scale adds waterline"
    (prm.Ckks.Params.input_scale_bits + prm.Ckks.Params.waterline_bits)
    m.Ckks.Ciphertext.scale_bits;
  let d = Ckks.Evaluator.decrypt e m in
  checkb "product" true (close ~eps:1e-4 d.(0) 0.25)

let eval_rotate () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 1.0; 2.0; 3.0; 4.0 |] in
  let r = Ckks.Evaluator.rotate e a 1 in
  let d = Ckks.Evaluator.decrypt e r in
  checkb "rotated left" true (close ~eps:1e-4 d.(0) 2.0 && close ~eps:1e-4 d.(3) 1.0);
  let r2 = Ckks.Evaluator.rotate e a (-1) in
  let d2 = Ckks.Evaluator.decrypt e r2 in
  checkb "rotated right" true (close ~eps:1e-4 d2.(0) 4.0)

let eval_rescale () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 0.5 |] in
  let pt = Ckks.Evaluator.encode e [| 0.5 |] in
  let m = Ckks.Evaluator.mul_cp e a pt in
  let r = Ckks.Evaluator.rescale e m in
  checki "scale reduced by q" (m.Ckks.Ciphertext.scale_bits - prm.Ckks.Params.scale_bits)
    r.Ckks.Ciphertext.scale_bits;
  checki "level dropped" (m.Ckks.Ciphertext.level - 1) r.Ckks.Ciphertext.level;
  checkb "value preserved" true
    (close ~eps:1e-4 (Ckks.Evaluator.decrypt e r).(0) 0.25)

let eval_modswitch () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 0.5 |] in
  let m = Ckks.Evaluator.modswitch e a in
  checki "level dropped" (a.Ckks.Ciphertext.level - 1) m.Ckks.Ciphertext.level;
  checki "scale unchanged" a.Ckks.Ciphertext.scale_bits m.Ckks.Ciphertext.scale_bits

let eval_bootstrap () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e ~level:1 [| 0.5 |] in
  let b = Ckks.Evaluator.bootstrap e a ~target_level:12 in
  checki "level raised" 12 b.Ckks.Ciphertext.level;
  checki "scale reset to q" prm.Ckks.Params.scale_bits b.Ckks.Ciphertext.scale_bits;
  checkb "value preserved" true
    (close ~eps:1e-4 (Ckks.Evaluator.decrypt e b).(0) 0.5)

(* Constraint violations: each must raise Fhe_error. *)
let raises_fhe f =
  match f () with
  | _ -> false
  | exception Ckks.Evaluator.Fhe_error _ -> true

let eval_constraint_violations () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 1.0 |] in
  let low = Ckks.Evaluator.modswitch e a in
  checkb "add level mismatch" true (raises_fhe (fun () -> Ckks.Evaluator.add_cc e a low));
  let pt = Ckks.Evaluator.encode e [| 1.0 |] in
  let prod = Ckks.Evaluator.mul_cp e a pt in
  checkb "add scale mismatch" true (raises_fhe (fun () -> Ckks.Evaluator.add_cc e a prod));
  checkb "mul level mismatch" true (raises_fhe (fun () -> Ckks.Evaluator.mul_cc e a low));
  checkb "rescale below waterline" true (raises_fhe (fun () -> Ckks.Evaluator.rescale e a));
  let at0 = Ckks.Evaluator.encrypt e ~level:0 [| 1.0 |] in
  checkb "modswitch at level 0" true (raises_fhe (fun () -> Ckks.Evaluator.modswitch e at0));
  checkb "bootstrap target 0" true
    (raises_fhe (fun () -> Ckks.Evaluator.bootstrap e a ~target_level:0));
  checkb "bootstrap above l_max" true
    (raises_fhe (fun () -> Ckks.Evaluator.bootstrap e a ~target_level:17));
  checkb "mul at level 0 overflows" true
    (raises_fhe (fun () -> Ckks.Evaluator.mul_cc e at0 at0));
  let m = Ckks.Evaluator.mul_cc e a a in
  checkb "size-3 operand rejected" true (raises_fhe (fun () -> Ckks.Evaluator.rotate e m 1));
  checkb "relin of size-2 rejected" true (raises_fhe (fun () -> Ckks.Evaluator.relin e a))

let eval_noise_grows () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 0.9 |] in
  let m = Ckks.Evaluator.relin e (Ckks.Evaluator.mul_cc e a a) in
  checkb "noise grows under mul" true (m.Ckks.Ciphertext.err > a.Ckks.Ciphertext.err);
  let b = Ckks.Evaluator.bootstrap e (Ckks.Evaluator.rescale e m) ~target_level:5 in
  checkb "bootstrap adds approximation noise" true (b.Ckks.Ciphertext.err > 1e-8)

let eval_capacity_formula () =
  checkb "56 bits at level 0" true
    (Ckks.Evaluator.capacity_ok prm ~scale_bits:56 ~level:0);
  checkb "112 bits at level 0" false
    (Ckks.Evaluator.capacity_ok prm ~scale_bits:112 ~level:0);
  checkb "112 bits at level 1" true
    (Ckks.Evaluator.capacity_ok prm ~scale_bits:112 ~level:1);
  checkb "168 bits at level 1" false
    (Ckks.Evaluator.capacity_ok prm ~scale_bits:168 ~level:1)

let eval_op_count () =
  let e = ev () in
  let a = Ckks.Evaluator.encrypt e [| 1.0 |] in
  let b = Ckks.Evaluator.encrypt e [| 2.0 |] in
  ignore (Ckks.Evaluator.add_cc e a b);
  checki "three ops" 3 (Ckks.Evaluator.op_count e)

let eval_mul_accuracy =
  qcheck ~count:100 "homomorphic arithmetic tracks plain arithmetic"
    QCheck2.Gen.(triple (float_range (-0.9) 0.9) (float_range (-0.9) 0.9) (int_bound 10_000))
    (fun (x, y, seed) ->
      let e = Ckks.Evaluator.create ~seed:(Int64.of_int seed) prm in
      let a = Ckks.Evaluator.encrypt e [| x |] and b = Ckks.Evaluator.encrypt e [| y |] in
      let sum = Ckks.Evaluator.decrypt e (Ckks.Evaluator.add_cc e a b) in
      let prod =
        Ckks.Evaluator.decrypt e (Ckks.Evaluator.relin e (Ckks.Evaluator.mul_cc e a b))
      in
      Float.abs (sum.(0) -. (x +. y)) < 1e-6 && Float.abs (prod.(0) -. (x *. y)) < 1e-6)

(* --- ciphertext slot checksum ----------------------------------------------- *)

(* The checksum's definition as a fold: the sum over slots [i] of
   splitmix64's finaliser on slot [i]'s bits plus [i + 1] golden-ratio
   steps. *)
let mixed_fold_checksum slots =
  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  snd
    (Array.fold_left
       (fun (i, acc) v ->
         ( i + 1,
           Int64.add acc
             (mix (Int64.add (Int64.bits_of_float v) (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L))) ))
       (0, 0L) slots)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The checksum runs on every integrity check of a corrupted value, so
   it must not box an [Int64] per slot.  [checksum] is measured against
   an empty array — a call that is not inlined returns its result boxed,
   the same for both — and [integrity_ok], which compares the result
   unboxed, must allocate nothing at all, on an intact value or a
   corrupted one. *)
let checksum_allocates_nothing () =
  let slots = Array.init 128 (fun i -> (float_of_int i *. 0.37) -. 20.0) in
  let make slots = Ckks.Ciphertext.make ~slots ~scale_bits:40 ~level:3 ~size:2 ~err:1e-9 in
  let ct = make slots in
  let bad =
    let flipped = make (Array.mapi (fun i v -> if i = 0 then v +. 1.0 else v) slots) in
    Ckks.Ciphertext.corrupted ct ~slots:flipped.Ckks.Ciphertext.slots ~err:1e-3
  in
  let sum slots () = ignore (Sys.opaque_identity (Ckks.Ciphertext.checksum slots)) in
  let ok ct () = ignore (Sys.opaque_identity (Ckks.Ciphertext.integrity_ok ct)) in
  ok ct ();
  ok bad ();
  sum slots ();
  check_float ~eps:0.0 "checksum: 0 words per slot on 128 slots"
    (minor_words (sum [||]))
    (minor_words (sum slots));
  check_float ~eps:0.0 "integrity_ok: 0 minor words on 128 slots" 0.0 (minor_words (ok ct));
  check_float ~eps:0.0 "integrity_ok, corrupted: 0 minor words on 128 slots" 0.0
    (minor_words (ok bad));
  checkb "the corrupted value fails" false (Ckks.Ciphertext.integrity_ok bad)

let checksum_matches_fold =
  let special =
    List.map Int64.float_of_bits
      [ 0L; Int64.min_int (* -0.0 *); 0x7FF8000000000000L; 0x7FF0000000000001L;
        0xFFF8DEADBEEF0001L; 0x7FFFFFFFFFFFFFFFL; 0x7FF0000000000000L ]
  in
  qcheck ~count:300 "checksum equals the position-mixed fold (-0.0, NaN payloads)"
    QCheck2.Gen.(
      array_size (int_range 0 300)
        (oneof [ map Int64.float_of_bits int64; float; oneofl special ]))
    (fun slots -> Int64.equal (Ckks.Ciphertext.checksum slots) (mixed_fold_checksum slots))

(* What an order-independent XOR of bit patterns let through: negating
   every slot of a 128-slot value (128 sign-bit flips cancel in pairs)
   and swapping two slots must each fail the integrity check. *)
let checksum_sees_sign_flips_and_swaps () =
  let slots = Array.init 128 (fun i -> (float_of_int i *. 0.37) -. 20.0) in
  let ct = Ckks.Ciphertext.make ~slots ~scale_bits:40 ~level:3 ~size:2 ~err:1e-9 in
  let corrupt edited =
    let e = Ckks.Ciphertext.make ~slots:edited ~scale_bits:40 ~level:3 ~size:2 ~err:1e-9 in
    Ckks.Ciphertext.corrupted ct ~slots:e.Ckks.Ciphertext.slots ~err:1e-3
  in
  let swapped = Array.copy slots in
  swapped.(3) <- slots.(90);
  swapped.(90) <- slots.(3);
  checkb "all 128 slots negated: integrity fails" false
    (Ckks.Ciphertext.integrity_ok (corrupt (Array.map Float.neg slots)));
  checkb "two slots swapped: integrity fails" false
    (Ckks.Ciphertext.integrity_ok (corrupt swapped));
  checkb "the pristine slots pass" true (Ckks.Ciphertext.integrity_ok (corrupt (Array.copy slots)))

(* Integrity by construction: only [Ciphertext.corrupted] records a
   checksum, that of the pristine slots, and [integrity_ok] on its value
   is exactly the comparison of the current slots' checksum with it.
   Edits cover a delta that rounding absorbs, -0.0 against +0.0, NaN
   payloads and arbitrary bit patterns; the second corruption of a value
   (sometimes restoring the pristine slots) still compares with the
   pristine checksum. *)
let integrity_by_construction =
  let special =
    List.map Int64.float_of_bits
      [ 0L; Int64.min_int (* -0.0 *); 0x7FF8000000000000L; 0x7FF0000000000001L;
        0xFFF8DEADBEEF0001L; 0x3FF0000000000000L (* 1.0 *) ]
  in
  let slot = QCheck2.Gen.(oneof [ float; oneofl special ]) in
  let edit =
    QCheck2.Gen.(
      pair nat
        (oneof
           [
             return (fun v -> v +. (v *. 0x1p-60));
             return (fun v -> if v = 0.0 then -.v else v);
             map (fun b _ -> Int64.float_of_bits b) int64;
             map (fun x _ -> x) (oneofl special);
           ]))
  in
  let apply slots (i, f) =
    let s = Array.copy slots in
    let i = i mod Array.length s in
    s.(i) <- f s.(i);
    s
  in
  qcheck ~count:300 "integrity_ok of a corrupted value = its checksum against the pristine one"
    QCheck2.Gen.(quad (array_size (int_range 1 64) slot) edit edit bool)
    (fun (pristine, e1, e2, restore) ->
      let open Ckks.Ciphertext in
      let ct slots = make ~slots ~scale_bits:40 ~level:3 ~size:2 ~err:1e-9 in
      let fresh = ct pristine in
      let s1 = apply pristine e1 in
      let s2 = if restore then pristine else apply s1 e2 in
      let c1 = corrupted fresh ~slots:(ct s1).slots ~err:1e-3 in
      let c2 = corrupted c1 ~slots:(ct s2).slots ~err:1e-2 in
      let verdict s = Int64.equal (checksum s) (checksum pristine) in
      fresh.chk = None
      && integrity_ok fresh
      && integrity_ok c1 = verdict s1
      && integrity_ok c2 = verdict s2
      && c2.chk = Some (checksum pristine))

(* --- max_abs ----------------------------------------------------------------- *)

(* The [Float.max] fold the compare loops replaced: bit for bit, a NaN
   slot (whatever its payload or sign) and -0.0 included. *)
let max_abs_fold a = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 a

(* NaN payloads of either sign, -0.0, the infinities, subnormals and the
   largest finite value (four of which overflow the kernel's sum). *)
let max_abs_specials =
  List.map Int64.float_of_bits
    [ 0L; Int64.min_int (* -0.0 *); 0x7FF8000000000000L; 0x7FF0000000000001L;
      0xFFF8DEADBEEF0001L; 0x7FFFFFFFFFFFFFFFL; 0x7FF0000000000000L;
      0xFFF0000000000000L (* -inf *); 0x0000000000000001L; 0x8000000000000001L;
      0x7FEFFFFFFFFFFFFFL (* max_float *) ]

(* The ciphertext's max and the plaintext's (from 52 scale bits up,
   encoding keeps every value as it is) both read the fold's bits. *)
let max_abs_agrees slots =
  let want = Int64.bits_of_float (max_abs_fold slots) in
  let ct = Ckks.Ciphertext.make ~slots ~scale_bits:40 ~level:3 ~size:2 ~err:0.0 in
  let pt = Ckks.Plaintext.encode ~scale_bits:60 slots in
  Int64.equal want (Int64.bits_of_float (Ckks.Ciphertext.max_abs ct))
  && Int64.equal want (Int64.bits_of_float (Ckks.Plaintext.max_abs pt))

(* Lengths 0-130: the kernel's four-lane body, every tail length, and
   specials mixed in anywhere. *)
let max_abs_matches_fold =
  qcheck ~count:500 "max_abs equals the Float.max fold (NaN payloads, -0.0, infinities)"
    QCheck2.Gen.(
      array_size (int_range 0 130)
        (oneof
           [ map Int64.float_of_bits int64; float; oneofl max_abs_specials;
             oneofl max_abs_specials ]))
    max_abs_agrees

(* Each special, alone and twice (a later NaN must win), in each lane of
   the first and last blocks and in the tail, at every length 0-130. *)
let max_abs_special_in_every_lane () =
  let bad = ref 0 in
  for n = 0 to 130 do
    let base = Array.init n (fun i -> float_of_int ((i * 37) mod 11) -. 5.0) in
    let positions = List.sort_uniq compare (List.filter (fun p -> p >= 0 && p < n)
        [ 0; 1; 2; 3; 4; 5; 6; 7; n / 2; n - 8; n - 5; n - 4; n - 3; n - 2; n - 1 ]) in
    List.iter
      (fun sp ->
        List.iter
          (fun p ->
            let a = Array.copy base in
            a.(p) <- sp;
            if not (max_abs_agrees a) then incr bad;
            List.iter
              (fun sq ->
                let b = Array.copy a in
                b.(n - 1 - p) <- sq;
                if not (max_abs_agrees b) then incr bad)
              max_abs_specials)
          positions)
      max_abs_specials
  done;
  checki "lengths 0-130 disagreeing with the fold" 0 !bad

(* A re-encoded plaintext's carried max is its new slots' fold. *)
let plaintext_max_abs_after_re_encode =
  qcheck ~count:300 "Plaintext.max_abs after re_encode is the fold of its slots"
    QCheck2.Gen.(
      triple
        (array_size (int_range 0 130)
           (oneof [ float_range (-4.0) 4.0; float; oneofl max_abs_specials ]))
        (int_range 1 60) (int_range 1 60))
    (fun (slots, s1, s2) ->
      let pt = Ckks.Plaintext.re_encode (Ckks.Plaintext.encode ~scale_bits:s1 slots) ~scale_bits:s2 in
      Int64.equal
        (Int64.bits_of_float (max_abs_fold pt.Ckks.Plaintext.slots))
        (Int64.bits_of_float (Ckks.Plaintext.max_abs pt))
      && Int64.equal
           (Int64.bits_of_float pt.Ckks.Plaintext.max_abs)
           (Int64.bits_of_float (Ckks.Plaintext.max_abs_slots pt.Ckks.Plaintext.slots)))

(* --- PRNG streams, pinned ---------------------------------------------------- *)

(* [add_uniform] holds the state in a local: bit for bit the per-draw
   [uniform] loop, in place or not, and it leaves the same state. *)
let prng_add_uniform_matches_draws =
  qcheck ~count:200 "add_uniform = a per-draw uniform loop, state included"
    QCheck2.Gen.(
      quad int64 (int_range 0 300)
        (oneof [ oneofl [ 0.0; 0x1p-60; 1.0; 1e300 ]; float_range 0.0 10.0 ])
        bool)
    (fun (seed, n, bound, in_place) ->
      let src = Array.init n (fun i -> Float.of_int (i - 150) *. 0.37) in
      let bits a = Array.map Int64.bits_of_float a in
      let r = Ckks.Prng.create seed and twin = Ckks.Prng.create seed in
      let dst = if in_place then src else Array.make n 0.0 in
      let want =
        Array.map (fun v -> v +. Ckks.Prng.uniform twin ~lo:(-.bound) ~hi:bound) src
      in
      Ckks.Prng.add_uniform r ~bound ~src ~dst;
      bits dst = bits want && Int64.equal (Ckks.Prng.int64 r) (Ckks.Prng.int64 twin))

(* SplitMix64 outputs recorded before the state moved from a mutable
   [int64] field to an unboxed byte buffer: how the state is stored must
   not move any stream by a bit. *)
let prng_streams_are_pinned () =
  let hex v = Printf.sprintf "%016Lx" v in
  let first8 seed =
    let r = Ckks.Prng.create seed in
    List.init 8 (fun _ -> hex (Ckks.Prng.int64 r))
  in
  let strings = Alcotest.(list string) in
  check strings "seed 0"
    [ "e220a8397b1dcdaf"; "6e789e6aa1b965f4"; "06c45d188009454f"; "f88bb8a8724c81ec";
      "1b39896a51a8749b"; "53cb9f0c747ea2ea"; "2c829abe1f4532e1"; "c584133ac916ab3c" ]
    (first8 0L);
  check strings "seed 42"
    [ "bdd732262feb6e95"; "28efe333b266f103"; "47526757130f9f52"; "581ce1ff0e4ae394";
      "09bc585a244823f2"; "de4431fa3c80db06"; "37e9671c45376d5d"; "ccf635ee9e9e2fa4" ]
    (first8 42L);
  check strings "seed 0x5EED"
    [ "09f1fd9d03f0a9b4"; "553274161bbf8475"; "5d5bca4696b343b3"; "70d29b6c7d22528d";
      "0bf2b716f9915475"; "5eb7f92b95387cca"; "296cd0f2c21d7f90"; "1289a69805c125b1" ]
    (first8 0x5EEDL);
  let bits v = hex (Int64.bits_of_float v) in
  let r = Ckks.Prng.create 0x5EEDL in
  check Alcotest.string "float" "3fa3e3fb3a07e150" (bits (Ckks.Prng.float r));
  check Alcotest.string "uniform" "bfc59b17d3c88100"
    (bits (Ckks.Prng.uniform r ~lo:(-1.5) ~hi:2.5));
  checki "int ~bound:1000" 945 (Ckks.Prng.int r ~bound:1000);
  check Alcotest.string "gaussian" "3ff39b8c432f9cfa" (bits (Ckks.Prng.gaussian r));
  let r = Ckks.Prng.create 0x5EEDL in
  let child = Ckks.Prng.split r in
  check Alcotest.string "split stream" "1282c5cd2debcee8" (hex (Ckks.Prng.int64 child));
  check Alcotest.string "parent after split" "553274161bbf8475" (hex (Ckks.Prng.int64 r))

(* --- slot kernels against a scalar reference ---------------------------------- *)

(* The evaluator's kernel contract: one [Prng.uniform] draw per slot, in
   slot order, added to the slot's exact result.  The reference replays
   that contract one slot at a time on a twin of the evaluator's stream
   (same seed), so any reordered, skipped or extra draw, or a changed
   float expression, shows as a differing bit pattern. *)
let ref_jitter rng ~bound src =
  let out = Array.make (Array.length src) 0.0 in
  for i = 0 to Array.length src - 1 do
    let u = Ckks.Prng.uniform rng ~lo:(-.bound) ~hi:bound in
    out.(i) <- src.(i) +. u
  done;
  out

let ref_rotate src k =
  let n = Array.length src in
  Array.init n (fun i -> src.((((i + k) mod n) + n) mod n))

let slot_bits a = Array.to_list (Array.map Int64.bits_of_float a)

let kernels_match_scalar_reference =
  qcheck ~count:60 "evaluator kernels equal the one-draw-per-slot reference"
    QCheck2.Gen.(triple (oneofl [ 1; 128 ]) (int_bound 1_000_000) (int_range (-300) 300))
    (fun (n, seed, k_random) ->
      let seed = Int64.of_int seed in
      let e = Ckks.Evaluator.create ~seed prm and twin = Ckks.Prng.create seed in
      let inputs = Ckks.Prng.create (Int64.add seed 1L) in
      let draw () = Array.init n (fun _ -> Ckks.Prng.uniform inputs ~lo:(-1.0) ~hi:1.0) in
      let x = draw () and y = draw () in
      let pow2 b = 2.0 ** b in
      let fresh scale = pow2 (Ckks.Evaluator.fresh_noise_bits -. float_of_int scale) in
      let rot scale = pow2 (Ckks.Evaluator.rotate_noise_bits -. float_of_int scale) in
      let boot = pow2 (-.Ckks.Evaluator.bootstrap_precision_bits) in
      (* Every kernel result is intact by construction; only the
         injected slot corruption records a checksum. *)
      let same ?(intact = true) what expected (ct : Ckks.Ciphertext.t) =
        if slot_bits expected <> slot_bits (Ckks.Ciphertext.to_array ct) then
          QCheck2.Test.fail_reportf "%s: slots differ from the reference (n = %d)" what n;
        if Ckks.Ciphertext.integrity_ok ct <> intact || (ct.Ckks.Ciphertext.chk = None) <> intact
        then QCheck2.Test.fail_reportf "%s: integrity verdict is not %b" what intact;
        ct
      in
      let s = prm.Ckks.Params.input_scale_bits in
      let enc v = same "encrypt" (ref_jitter twin ~bound:(fresh s) v) (Ckks.Evaluator.encrypt e v) in
      let a = enc x in
      let b = enc y in
      let sum u v = Array.mapi (fun i ui -> ui +. v.(i)) u in
      let prod u v = Array.mapi (fun i ui -> ui *. v.(i)) u in
      let open Ckks.Ciphertext in
      ignore (same "add_cc" (sum (to_array a) (to_array b)) (Ckks.Evaluator.add_cc e a b));
      let pt = Ckks.Evaluator.encode e y in
      let quantised =
        let bits = pt.Ckks.Plaintext.scale_bits in
        let sc = Float.of_int (1 lsl bits) in
        Array.map (fun v -> if bits >= 52 then v else Float.round (v *. sc) /. sc) y
      in
      if slot_bits quantised <> slot_bits pt.Ckks.Plaintext.slots then
        QCheck2.Test.fail_reportf "encode: slots differ from the reference (n = %d)" n;
      ignore
        (same "add_cp" (sum (to_array a) pt.Ckks.Plaintext.slots) (Ckks.Evaluator.add_cp e a pt));
      let m =
        same "mul_cc"
          (ref_jitter twin ~bound:(fresh (2 * s)) (prod (to_array a) (to_array b)))
          (Ckks.Evaluator.mul_cc e a b)
      in
      ignore
        (same "mul_cp"
           (ref_jitter twin ~bound:(fresh (s + pt.Ckks.Plaintext.scale_bits))
              (prod (to_array a) pt.Ckks.Plaintext.slots))
           (Ckks.Evaluator.mul_cp e a pt));
      let r =
        same "relin"
          (ref_jitter twin ~bound:(rot m.scale_bits) (to_array m))
          (Ckks.Evaluator.relin e m)
      in
      let q = prm.Ckks.Params.scale_bits in
      ignore
        (same "rescale"
           (ref_jitter twin ~bound:(fresh (r.scale_bits - q)) (to_array r))
           (Ckks.Evaluator.rescale e r));
      List.iter
        (fun k ->
          ignore
            (same (Printf.sprintf "rotate %d" k)
               (ref_jitter twin ~bound:(rot a.scale_bits) (ref_rotate (to_array a) k))
               (Ckks.Evaluator.rotate e a k)))
        [ 0; n; -1; n + 3; k_random ];
      ignore (same "modswitch" (to_array a) (Ckks.Evaluator.modswitch e a));
      ignore
        (same "bootstrap" (ref_jitter twin ~bound:boot (to_array a))
           (Ckks.Evaluator.bootstrap e a ~target_level:8));
      ignore
        (same "refresh" (ref_jitter twin ~bound:boot (to_array a)) (Ckks.Evaluator.refresh e a));
      (* Fault paths: the injector draws its firing decision, then its
         effect, from its own stream; the evaluator's stream still makes
         one draw per slot for the op underneath. *)
      let fault_seed = Int64.add seed 2L in
      let under_fault kind ~mag f =
        let inj =
          Ckks.Fault.create
            {
              Ckks.Fault.seed = fault_seed;
              rules = [ Ckks.Fault.rule kind ~prob:1.0 ~mag ];
              budget = 1;
            }
        in
        Ckks.Fault.with_faults inj f
      in
      let fr = Ckks.Prng.create fault_seed in
      ignore (Ckks.Prng.float fr);
      let spiked =
        under_fault Ckks.Fault.Noise_spike ~mag:20.0 (fun () -> Ckks.Evaluator.relin e m)
      in
      let base = ref_jitter twin ~bound:(rot m.scale_bits) (to_array m) in
      ignore (same "noise spike" (ref_jitter fr ~bound:spiked.err base) spiked);
      let fr = Ckks.Prng.create fault_seed in
      ignore (Ckks.Prng.float fr);
      let corrupted =
        under_fault Ckks.Fault.Slot_corrupt ~mag:(-3.0) (fun () -> Ckks.Evaluator.relin e m)
      in
      let expected = ref_jitter twin ~bound:(rot m.scale_bits) (to_array m) in
      let i = Ckks.Prng.int fr ~bound:n in
      let amp = pow2 (-3.0) in
      let delta = Ckks.Prng.uniform fr ~lo:(amp /. 2.0) ~hi:amp in
      let sign = if Ckks.Prng.float fr < 0.5 then -1.0 else 1.0 in
      expected.(i) <- expected.(i) +. (sign *. delta);
      ignore (same ~intact:false "slot corrupt" expected corrupted);
      true)

(* A slot kernel allocates its result array and nothing per slot: the
   minor words an op allocates on 128 slots exceed those on 1 slot by
   exactly the 127 extra words of its result.  [modswitch] shares its
   operand's slots, so it allocates the result record and nothing else.
   Measured with no trace, metrics sink or fault injector installed. *)
let kernels_allocate_nothing_per_slot () =
  let setup n =
    let slots = Array.init n (fun i -> 0.5 -. (float_of_int i /. 512.0)) in
    let e = Ckks.Evaluator.create ~seed:5L prm in
    let a = Ckks.Evaluator.encrypt e slots and b = Ckks.Evaluator.encrypt e slots in
    (slots, e, a, b, Ckks.Evaluator.encode e slots)
  in
  let words n f =
    let slots, e, a, b, pt = setup n in
    let run () = ignore (Sys.opaque_identity (f e slots a b pt)) in
    run ();
    minor_words run
  in
  List.iter
    (fun (name, f) ->
      check_float ~eps:0.0 (name ^ ": result words only") 127.0 (words 128 f -. words 1 f))
    [
      ("encode", fun e slots _ _ _ -> Ckks.Evaluator.encode e slots |> Obj.repr);
      ("encrypt", fun e slots _ _ _ -> Ckks.Evaluator.encrypt e slots |> Obj.repr);
      ("add_cc", fun e _ a b _ -> Ckks.Evaluator.add_cc e a b |> Obj.repr);
      ("add_cp", fun e _ a _ pt -> Ckks.Evaluator.add_cp e a pt |> Obj.repr);
      ("mul_cc", fun e _ a b _ -> Ckks.Evaluator.mul_cc e a b |> Obj.repr);
      ("mul_cp", fun e _ a _ pt -> Ckks.Evaluator.mul_cp e a pt |> Obj.repr);
      ("rotate", fun e _ a _ _ -> Ckks.Evaluator.rotate e a 3 |> Obj.repr);
      ("bootstrap", fun e _ a _ _ -> Ckks.Evaluator.bootstrap e a ~target_level:8 |> Obj.repr);
      ("refresh", fun e _ a _ _ -> Ckks.Evaluator.refresh e a |> Obj.repr);
    ];
  let _, e, a, _, _ = setup 128 in
  let m = Ckks.Evaluator.modswitch e a in
  checkb "modswitch: shares its operand's slots" true
    (m.Ckks.Ciphertext.slots == a.Ckks.Ciphertext.slots);
  check_float ~eps:0.0 "modswitch: the result record only"
    (float_of_int (Obj.size (Obj.repr m) + 1))
    (words 128 (fun e _ a _ _ -> Ckks.Evaluator.modswitch e a))

let suite =
  [
    case "params: defaults" params_defaults;
    case "params: fig1" params_fig1;
    case "params: with_l_max" params_with_l_max;
    case "params: validation rejects bad configs" params_invalid;
    case "cost model: Table 2 grid values" table2_exact_values;
    case "cost model: linear interpolation" table2_interpolation;
    case "cost model: modswitch epsilon" table2_modswitch_cheap;
    case "cost model: extrapolation above 16" table2_extrapolation;
    case "cost model: tabulated levels equal the interpolation" table2_tabulated_bit_equal;
    table2_nonnegative;
    table2_monotone_in_level;
    case "prng: deterministic" prng_deterministic;
    case "prng: seed sensitivity" prng_seed_sensitivity;
    prng_float_range;
    prng_int_bound;
    case "prng: uniform mean" prng_mean;
    case "prng: gaussian moments" prng_gaussian_moments;
    case "plaintext: quantisation grid" plaintext_quantisation;
    case "plaintext: re-encode" plaintext_re_encode;
    case "evaluator: add_cc semantics" eval_add_cc;
    case "evaluator: mul_cc scales add, relin" eval_mul_cc_scale_sum;
    case "evaluator: mul_cp waterline" eval_mul_cp;
    case "evaluator: rotate" eval_rotate;
    case "evaluator: rescale" eval_rescale;
    case "evaluator: modswitch" eval_modswitch;
    case "evaluator: bootstrap" eval_bootstrap;
    case "evaluator: constraint violations raise" eval_constraint_violations;
    case "evaluator: noise grows" eval_noise_grows;
    case "evaluator: capacity formula" eval_capacity_formula;
    case "evaluator: op counting" eval_op_count;
    eval_mul_accuracy;
    case "ciphertext: checksum allocates nothing per slot" checksum_allocates_nothing;
    checksum_matches_fold;
    case "ciphertext: checksum sees negated and swapped slots" checksum_sees_sign_flips_and_swaps;
    integrity_by_construction;
    max_abs_matches_fold;
    case "max_abs: a special value in every lane and tail" max_abs_special_in_every_lane;
    plaintext_max_abs_after_re_encode;
    case "prng: streams pinned" prng_streams_are_pinned;
    prng_add_uniform_matches_draws;
    kernels_match_scalar_reference;
    case "evaluator: kernels allocate nothing per slot" kernels_allocate_nothing_per_slot;
  ]
