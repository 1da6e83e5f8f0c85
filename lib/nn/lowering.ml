open Fhe_ir

type t = { dfg : Dfg.t; model : Model.t; input_name : string }

(* One stage of the composite sign polynomial: powers by ciphertext
   squaring; the coefficient multiplications and the final adds sink to
   the combination region during region assignment. *)
let lower_f_stage g x =
  let x2 = Dfg.mul_cc g x x in
  let x3 = Dfg.mul_cc g x2 x in
  let x4 = Dfg.mul_cc g x2 x2 in
  let x5 = Dfg.mul_cc g x2 x3 in
  let x7 = Dfg.mul_cc g x3 x4 in
  let term power idx =
    Dfg.mul_cp g power (Dfg.const g ("f7c" ^ string_of_int idx))
  in
  let t1 = term x 0 and t3 = term x3 1 and t5 = term x5 2 and t7 = term x7 3 in
  Dfg.add_cc g (Dfg.add_cc g t1 t3) (Dfg.add_cc g t5 t7)

let lower_apr g ~stages u =
  let s = ref u in
  for _ = 1 to max stages 1 do
    s := lower_f_stage g !s
  done;
  (* relu(u) = u * (0.5 + 0.5 * sign(u)) *)
  let half = Dfg.mul_cp g !s (Dfg.const g "apr_half") in
  let blend = Dfg.add_cp g half (Dfg.const g "apr_bias") in
  Dfg.mul_cc g u blend

(* The per-output-channel loop stays rolled (freq = channels); its
   accumulated partials are combined into the single packed output
   ciphertext by a frequency-1 rotate-and-add repack, so operations
   inserted after the layer (rescale, bootstrap) are charged once, as they
   execute on one ciphertext. *)
let repack g ~channels acc =
  if channels <= 1 then acc
  else Dfg.add_cc g acc (Dfg.rotate g acc channels)

let lower_conv g ~name ~taps ~channels x =
  if taps < 1 then invalid_arg "Lowering: conv needs at least one tap";
  let term t =
    let offset = t - (taps / 2) in
    let src = if offset = 0 then x else Dfg.rotate g x offset in
    Dfg.mul_cp g ~freq:channels src (Dfg.const g (name ^ "_w" ^ string_of_int t))
  in
  let acc = ref (term 0) in
  for t = 1 to taps - 1 do
    acc := Dfg.add_cc g ~freq:channels !acc (term t)
  done;
  let biased = Dfg.add_cp g ~freq:channels !acc (Dfg.const g (name ^ "_b")) in
  repack g ~channels biased

let lower_pool g ~name ~taps x =
  let acc = ref x in
  for t = 1 to taps - 1 do
    acc := Dfg.add_cc g !acc (Dfg.rotate g x t)
  done;
  Dfg.mul_cp g !acc (Dfg.const g (name ^ "_scale"))

let lower_fc g ~name ~taps ~blocks x =
  let term t =
    let offset = (t + 1) * 16 in
    let src = if t = 0 then x else Dfg.rotate g x offset in
    Dfg.mul_cp g ~freq:blocks src (Dfg.const g (name ^ "_w" ^ string_of_int t))
  in
  let acc = ref (term 0) in
  for t = 1 to taps - 1 do
    acc := Dfg.add_cc g ~freq:blocks !acc (term t)
  done;
  let biased = Dfg.add_cp g ~freq:blocks !acc (Dfg.const g (name ^ "_b")) in
  repack g ~channels:blocks biased

let rec lower_layer g layer x =
  match layer with
  | Model.Conv { name; taps; channels } -> lower_conv g ~name ~taps ~channels x
  | Model.Apr { stages } -> lower_apr g ~stages x
  | Model.Square -> Dfg.mul_cc g x x
  | Model.Pool { name; taps } -> lower_pool g ~name ~taps x
  | Model.Fc { name; taps; blocks } -> lower_fc g ~name ~taps ~blocks x
  | Model.Residual { body; project } ->
      let b = lower_seq g body x in
      let p = match project with [] -> x | layers -> lower_seq g layers x in
      Dfg.add_cc g b p
  | Model.Concat { name; branches } ->
      let outs = List.map (fun branch -> lower_seq g branch x) branches in
      let masked =
        List.mapi
          (fun i o -> Dfg.mul_cp g o (Dfg.const g (name ^ "_mask" ^ string_of_int i)))
          outs
      in
      (match masked with
      | [] -> invalid_arg "Lowering: empty concat"
      | first :: rest -> List.fold_left (fun acc o -> Dfg.add_cc g acc o) first rest)

and lower_seq g layers x = List.fold_left (fun acc layer -> lower_layer g layer acc) x layers

let lower model =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let out = lower_seq g model.Model.layers x in
  Dfg.set_outputs g [ out ];
  (match Dfg.validate g with
  | Ok () -> ()
  | Error (msg :: _) -> invalid_arg ("Lowering: invalid graph: " ^ msg)
  | Error [] -> assert false);
  { dfg = g; model; input_name = "x" }

(* --- Constant payloads ------------------------------------------------- *)

let hash_name name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    name;
  !h

(* [sub] occurs in [name] at offset [i], compared in place. *)
let occurs_at name sub i =
  let ls = String.length sub in
  let rec eq k = k = ls || (name.[i + k] = sub.[k] && eq (k + 1)) in
  i >= 0 && i + ls <= String.length name && eq 0

let has_suffix ~suffix name =
  occurs_at name suffix (String.length name - String.length suffix)

let contains_sub name sub =
  let last = String.length name - String.length sub in
  let rec go i = i <= last && (occurs_at name sub i || go (i + 1)) in
  go 0

let taps_of_layer model name =
  (* Width of the reduction feeding a weight named [name_w<t>]. *)
  let rec scan layers =
    List.find_map
      (fun layer ->
        match layer with
        | Model.Conv { name = n; taps; _ } when contains_sub name n -> Some taps
        | Model.Fc { name = n; taps; _ } when contains_sub name n -> Some taps
        | Model.Pool { name = n; taps } when contains_sub name n -> Some taps
        | Model.Residual { body; project } -> scan (body @ project)
        | Model.Concat { branches; _ } -> scan (List.concat branches)
        | _ -> None)
      layers
  in
  Option.value (scan model.Model.layers) ~default:9

let base_resolver t ~dim name =
  let fill v = Array.make dim v in
  if String.length name >= 4 && occurs_at name "f7c" 0 then
    fill Poly_approx.f7.(Char.code name.[3] - Char.code '0')
  else if name = "apr_half" then fill 0.5
  else if name = "apr_bias" then fill 0.5
  else if has_suffix ~suffix:"_scale" name then
    fill (1.0 /. float_of_int (taps_of_layer t.model name))
  else if contains_sub name "_mask" then fill 0.5
  else if has_suffix ~suffix:"_b" name then
    let rng = Ckks.Prng.create (hash_name name) in
    Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-0.02) ~hi:0.02)
  else begin
    (* A weight tap: the reduction sums [taps] terms and the repack adds
       two partials, so amplitude 0.45/taps keeps layer outputs inside the
       [-1, 1] domain of the polynomial activation. *)
    let amplitude = 0.45 /. float_of_int (taps_of_layer t.model name) in
    let rng = Ckks.Prng.create (hash_name name) in
    Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-.amplitude) ~hi:amplitude)
  end

(* A payload is a pure function of its name and nothing mutates one
   ([Plaintext.encode] quantises into a fresh array), so each name is
   resolved once per resolver and the array shared by every later ask. *)
let resolver t ~dim =
  let resolve = Passes.Const_fold.resolving (base_resolver t ~dim) in
  let memo = Hashtbl.create 512 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some payload -> payload
    | None ->
        let payload = resolve name in
        Hashtbl.add memo name payload;
        payload

(* One scan per name: a model's constant nodes repeat names (ResNet-20's
   402 nodes have 218), and the analysis asks once per node. *)
let const_magnitude consts =
  let memo = Hashtbl.create 256 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some m -> m
    | None ->
        let m = Ckks.Plaintext.max_abs_slots (consts name) in
        Hashtbl.add memo name m;
        m
