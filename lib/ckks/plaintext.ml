type t = { slots : float array; scale_bits : int; err : float }

(* A loop into [Array.create_float], not an [Array.map] closure, so no
   slot is boxed. *)
let quantise ~scale_bits slots =
  (* Beyond 52 bits the float mantissa cannot represent the rounding, which
     matches reality: the encoding error is below double precision. *)
  if scale_bits >= 52 then Array.copy slots
  else begin
    let s = Float.of_int (1 lsl scale_bits) in
    let out = Array.create_float (Array.length slots) in
    for i = 0 to Array.length slots - 1 do
      out.(i) <- Float.round (slots.(i) *. s) /. s
    done;
    out
  end

let encode ~scale_bits slots =
  if scale_bits <= 0 then invalid_arg "Plaintext.encode: scale must be positive";
  let quantised = quantise ~scale_bits slots in
  { slots = quantised; scale_bits; err = 2.0 ** float_of_int (-scale_bits) }

let re_encode pt ~scale_bits = encode ~scale_bits pt.slots

(* A loop, as [Ciphertext.max_abs]. *)
let max_abs pt =
  let acc = ref 0.0 in
  for i = 0 to Array.length pt.slots - 1 do
    acc := Float.max !acc (Float.abs pt.slots.(i))
  done;
  !acc

let pp ppf pt =
  Format.fprintf ppf "@[<h>pt(%d slots, scale 2^%d)@]" (Array.length pt.slots)
    pt.scale_bits
