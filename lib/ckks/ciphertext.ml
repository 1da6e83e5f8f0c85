type t = {
  slots : float array;
  scale_bits : int;
  level : int;
  size : int;
  err : float;
  chk : int64;
}

(* Order-independent XOR of the slot bit patterns: exact (no float
   rounding, no absorption), so any corruption that changes a slot's
   representable value changes the checksum — including single-slot
   deltas far below the noise floor, which the err-based boundary
   validator cannot see.  A [for] loop over a local ref, not a fold:
   without flambda the fold's closure boxes one [Int64] per slot, while
   the loop keeps the accumulator unboxed — this runs on every evaluator
   op and every boundary integrity check. *)
let[@inline] checksum slots =
  let acc = ref 0L in
  for i = 0 to Array.length slots - 1 do
    acc := Int64.logxor !acc (Int64.bits_of_float slots.(i))
  done;
  !acc

let make ~slots ~scale_bits ~level ~size ~err =
  if scale_bits <= 0 then invalid_arg "Ciphertext.make: scale must be positive";
  if level < 0 then invalid_arg "Ciphertext.make: negative level";
  if size < 2 then invalid_arg "Ciphertext.make: size below 2";
  { slots; scale_bits; level; size; err; chk = checksum slots }

let integrity_ok ct = Int64.equal (checksum ct.slots) ct.chk

let slice ct ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length ct.slots then
    invalid_arg
      (Printf.sprintf "Ciphertext.slice: block [%d, %d) outside %d slots" off (off + len)
         (Array.length ct.slots));
  Array.sub ct.slots off len

(* A loop over a local ref, like [checksum]: the fold's closure would box
   one float per slot, and [mul_cc]/[mul_cp] call this on every product. *)
let max_abs ct =
  let acc = ref 0.0 in
  for i = 0 to Array.length ct.slots - 1 do
    acc := Float.max !acc (Float.abs ct.slots.(i))
  done;
  !acc

let pp ppf ct =
  Format.fprintf ppf "@[<h>ct(%d slots, scale 2^%d, L%d, size %d, err %.3g)@]"
    (Array.length ct.slots) ct.scale_bits ct.level ct.size ct.err
