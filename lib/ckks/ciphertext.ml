type slots = Slots.t

type t = {
  slots : slots;
  scale_bits : int;
  level : int;
  size : int;
  err : float;
  chk : int64 option;
}

(* A position-dependent sum of mixed slot bit patterns: exact (no
   float rounding, no absorption), so any corruption that changes a
   slot's representable value changes the checksum but for a 2^-64
   chance — including single-slot deltas far below the noise floor,
   which the err-based boundary validator cannot see.  Slot [i]'s bit
   pattern, offset by [i + 1] golden-ratio steps, goes through
   splitmix64's finaliser, in which every input bit reaches every output
   bit.  A plain XOR (or a multiply-then-XOR) of the patterns is blind to
   a swap of two slots and to an even number of identical bit flips:
   negating every slot of a 128-slot value flips 128 sign bits that
   cancel in pairs.  A [for] loop over a local ref, not a fold: without
   flambda the fold's closure boxes one [Int64] per slot, while the loop
   keeps the accumulator and the mix unboxed.  It runs only where a
   fault rewrote slots: once when [corrupted] builds the value, once per
   integrity check of that value. *)
let[@inline] checksum slots =
  let acc = ref 0L in
  for i = 0 to Array.length slots - 1 do
    let z =
      Int64.add (Int64.bits_of_float slots.(i)) (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)
    in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    acc := Int64.add !acc (Int64.logxor z (Int64.shift_right_logical z 31))
  done;
  !acc

let of_slots ~slots ~scale_bits ~level ~size ~err =
  if scale_bits <= 0 then invalid_arg "Ciphertext.make: scale must be positive";
  if level < 0 then invalid_arg "Ciphertext.make: negative level";
  if size < 2 then invalid_arg "Ciphertext.make: size below 2";
  { slots; scale_bits; level; size; err; chk = None }

let make ~slots = of_slots ~slots:(Array.copy slots)
(* A value corrupted twice keeps the checksum of the slots it was built
   with, the one its first corruption recorded. *)
let corrupted ct ~slots ~err =
  let pristine = match ct.chk with Some _ as c -> c | None -> Some (checksum ct.slots) in
  { ct with slots; err; chk = pristine }

let integrity_ok ct =
  match ct.chk with None -> true | Some c -> Int64.equal (checksum ct.slots) c
let get ct i = ct.slots.(i)
let length ct = Array.length ct.slots
let to_array ct = Array.copy ct.slots

let slice ct ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length ct.slots then
    invalid_arg
      (Printf.sprintf "Ciphertext.slice: block [%d, %d) outside %d slots" off (off + len)
         (Array.length ct.slots));
  Array.sub ct.slots off len

let max_abs ct = Slots.max_abs ct.slots

let pp ppf ct =
  Format.fprintf ppf "@[<h>ct(%d slots, scale 2^%d, L%d, size %d, err %.3g)@]"
    (Array.length ct.slots) ct.scale_bits ct.level ct.size ct.err
