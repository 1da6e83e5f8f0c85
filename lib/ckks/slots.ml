type t = float array

(* [Float.max m y] with [y = |v|] and [m] built from such values (sign
   bits clear): [y] when [y > m] and [m] is a number, [y] when [y] is a
   NaN, [m] otherwise.  A NaN [m] never loses a [>] test, so a later NaN
   replaces it and no number does.  The loop spells that out with two
   float compares, where [Float.max] makes two C calls ([sign_bit] and
   [is_nan]'s caller) per slot. *)
let exact_max_abs a =
  let m = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = Float.abs (Array.unsafe_get a i) in
    if y > !m || y <> y then m := y
  done;
  !m

(* Four independent running maxima, one per slot index mod 4, and a sum
   of every [|v|].  Over numbers the maximum does not depend on the order
   it is taken in, so the largest lane is the fold's result.  A NaN or an
   infinity makes the sum a NaN or an infinity, and so does a sum that
   overflows; only then does the order matter (the fold keeps the last
   NaN), and the exact loop runs instead.  The lanes break the chain of
   compares through one accumulator that the exact loop waits on. *)
let max_abs a =
  let n = Array.length a in
  let m0 = ref 0.0 and m1 = ref 0.0 and m2 = ref 0.0 and m3 = ref 0.0 in
  let sum = ref 0.0 in
  let i = ref 0 in
  while !i + 4 <= n do
    let k = !i in
    let y0 = Float.abs (Array.unsafe_get a k)
    and y1 = Float.abs (Array.unsafe_get a (k + 1))
    and y2 = Float.abs (Array.unsafe_get a (k + 2))
    and y3 = Float.abs (Array.unsafe_get a (k + 3)) in
    if y0 > !m0 then m0 := y0;
    if y1 > !m1 then m1 := y1;
    if y2 > !m2 then m2 := y2;
    if y3 > !m3 then m3 := y3;
    sum := !sum +. ((y0 +. y1) +. (y2 +. y3));
    i := k + 4
  done;
  while !i < n do
    let y = Float.abs (Array.unsafe_get a !i) in
    if y > !m0 then m0 := y;
    sum := !sum +. y;
    incr i
  done;
  if Float.is_finite !sum then begin
    if !m1 > !m0 then m0 := !m1;
    if !m3 > !m2 then m2 := !m3;
    if !m2 > !m0 then !m2 else !m0
  end
  else exact_max_abs a
