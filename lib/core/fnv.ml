let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let mix_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let mix_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := mix_byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let mix_int h v = mix_int64 h (Int64.of_int v)

let mix_string h s =
  let h = ref (mix_int h (String.length s)) in
  String.iter (fun c -> h := mix_byte !h (Char.code c)) s;
  !h

let hex h = Printf.sprintf "%016Lx" h
