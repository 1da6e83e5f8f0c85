(* The SplitMix64 state lives in an 8-byte buffer, not a [mutable int64]
   field: [Bytes.get_int64_ne]/[set_int64_ne] read and write it unboxed,
   where every store to an [int64] field would box a fresh [Int64].  With
   [int64], [float] and [uniform] inlined into a caller's loop, a draw
   allocates nothing. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* The SplitMix64 output function of the state [z] just advanced to. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  mix z

let split t = create (int64 t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* mask to the native non-negative range: Int64.to_int keeps the low 63
     bits and would otherwise produce negative values *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 1) land max_int in
  v mod bound

(* 53 uniform bits of an output mapped to [0, 1). *)
let[@inline] unit_float r =
  Int64.to_float (Int64.shift_right_logical r 11) /. 9007199254740992.0

let[@inline] float t = unit_float (int64 t)
let[@inline] uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(* The draw loop lives here, not in the caller, so it is compiled with
   the draw inlined even where cross-module inlining is off (dune's dev
   profile compiles with [-opaque]): no slot boxes a float in any build.
   The state is loaded into a local once and stored back once, where
   [uniform] would round-trip the buffer on every draw; the local is a
   ref that never escapes, so it stays an unboxed register.  Each step is
   [int64]'s, so the stream is the per-draw loop's bit for bit. *)
let add_uniform t ~bound ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Prng.add_uniform: arrays differ in length";
  let lo = -.bound and hi = bound in
  let state = ref (Bytes.get_int64_ne t 0) in
  for i = 0 to Array.length dst - 1 do
    let z = Int64.add !state golden in
    state := z;
    dst.(i) <- src.(i) +. (lo +. ((hi -. lo) *. unit_float (mix z)))
  done;
  Bytes.set_int64_ne t 0 !state

let gaussian t =
  let u1 = Float.max (float t) 1e-300 and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
