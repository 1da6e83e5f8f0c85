type op =
  | Add_cp
  | Add_cc
  | Mul_cp
  | Mul_cc
  | Rotate
  | Relin
  | Rescale
  | Bootstrap
  | Modswitch

let all_ops =
  [ Add_cp; Add_cc; Mul_cp; Mul_cc; Rotate; Relin; Rescale; Bootstrap; Modswitch ]

let op_name = function
  | Add_cp -> "AddCP"
  | Add_cc -> "AddCC"
  | Mul_cp -> "MulCP"
  | Mul_cc -> "MulCC"
  | Rotate -> "Rotate"
  | Relin -> "Relinearization"
  | Rescale -> "Rescale"
  | Bootstrap -> "Bootstrap"
  | Modswitch -> "Modswitch"

let table_levels = [ 0; 2; 4; 6; 8; 10; 12; 14; 16 ]

(* Table 2 of the paper, ms, at levels 0,2,...,16.  [nan] marks entries the
   paper leaves blank (operation undefined or unmeasured at level 0); those
   are back-extrapolated from the first defined segment and clamped. *)
let raw = function
  | Add_cp -> [| 0.138; 0.575; 0.886; 1.268; 1.714; 1.931; 2.295; 2.807; 3.066 |]
  | Add_cc -> [| 0.164; 0.548; 0.936; 1.344; 1.690; 2.089; 2.561; 3.089; 3.574 |]
  | Mul_cp -> [| nan; 1.175; 1.993; 2.746; 3.553; 4.354; 5.175; 5.902; 6.837 |]
  | Mul_cc -> [| nan; 2.509; 4.237; 6.021; 7.750; 9.280; 11.129; 13.053; 15.638 |]
  | Rotate ->
      [| 58.422; 77.521; 93.799; 111.901; 130.940; 150.321; 241.560; 243.323; 290.575 |]
  | Relin ->
      [| nan; 76.947; 93.617; 111.819; 130.493; 149.586; 215.768; 242.031; 262.308 |]
  | Rescale -> [| nan; 9.085; 15.107; 21.333; 27.535; 33.792; 40.068; 46.372; 52.744 |]
  | Bootstrap ->
      [| nan; 21005.0; 23738.0; 26229.0; 30413.0; 34556.0; 37844.0; 41582.0; 44719.0 |]
  | Modswitch -> [| 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |]

let modswitch_epsilon = 0.001

(* Fill the level-0 hole of a row by extrapolating the 2->4 segment
   backwards, clamped at a tenth of the level-2 value so costs stay
   positive and monotone enough for the optimiser. *)
let filled op =
  let row = Array.copy (raw op) in
  if Float.is_nan row.(0) then begin
    let backcast = row.(1) -. (row.(2) -. row.(1)) in
    row.(0) <- Float.max backcast (row.(1) /. 10.0)
  end;
  row

(* Filled once at module initialisation and never mutated, so concurrent
   planner domains read it without synchronisation. *)
let tables = Array.of_list (List.map filled all_ops)

let index = function
  | Add_cp -> 0
  | Add_cc -> 1
  | Mul_cp -> 2
  | Mul_cc -> 3
  | Rotate -> 4
  | Relin -> 5
  | Rescale -> 6
  | Bootstrap -> 7
  | Modswitch -> 8

(* Table 2 at level [level >= 0]: odd levels interpolated, levels past
   the grid extrapolated along the last segment. *)
let interpolate op level =
  match op with
  | Modswitch -> modswitch_epsilon
  | _ ->
      let row = tables.(index op) in
      let x = float_of_int level /. 2.0 in
      let last = Array.length row - 1 in
      let v =
        if x >= float_of_int last then
          row.(last) +. ((x -. float_of_int last) *. (row.(last) -. row.(last - 1)))
        else begin
          let i = int_of_float (Float.floor x) in
          let frac = x -. float_of_int i in
          row.(i) +. (frac *. (row.(i + 1) -. row.(i)))
        end
      in
      Float.max v 0.0

(* [interpolate] at every integer level [0 .. tabulated], row-major by
   op: the planners price ops at these levels millions of times. *)
let tabulated = 64

let by_level =
  let ops = Array.of_list all_ops in
  Array.init
    (Array.length ops * (tabulated + 1))
    (fun k -> interpolate ops.(k / (tabulated + 1)) (k mod (tabulated + 1)))

let cost op ~level =
  let level = max level 0 in
  if level <= tabulated then by_level.((index op * (tabulated + 1)) + level)
  else interpolate op level
