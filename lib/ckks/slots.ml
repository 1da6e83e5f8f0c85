type t = float array

(* [Float.max m y] with [y = |v|] and [m] built from such values (sign
   bits clear): [y] when [y > m] and [m] is a number, [y] when [y] is a
   NaN, [m] otherwise.  A NaN [m] never loses a [>] test, so a later NaN
   replaces it and no number does.  The loop spells that out with two
   float compares, where [Float.max] makes two C calls ([sign_bit] and
   [is_nan]'s caller) per slot; [mul_cc] and [mul_cp] fold both operands
   on every product. *)
let max_abs a =
  let m = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = Float.abs (Array.unsafe_get a i) in
    if y > !m || y <> y then m := y
  done;
  !m
