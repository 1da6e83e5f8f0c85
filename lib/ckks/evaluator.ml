type cause =
  | Scale_overflow
  | Scale_mismatch
  | Level_mismatch
  | Level_underflow
  | Scale_underflow
  | Size_mismatch
  | Slot_mismatch
  | Target_out_of_range
  | Negative_level
  | Illegal_graph
  | State_divergence
  | Injected_transient

let cause_name = function
  | Scale_overflow -> "scale_overflow"
  | Scale_mismatch -> "scale_mismatch"
  | Level_mismatch -> "level_mismatch"
  | Level_underflow -> "level_underflow"
  | Scale_underflow -> "scale_underflow"
  | Size_mismatch -> "size_mismatch"
  | Slot_mismatch -> "slot_mismatch"
  | Target_out_of_range -> "target_out_of_range"
  | Negative_level -> "negative_level"
  | Illegal_graph -> "illegal_graph"
  | State_divergence -> "state_divergence"
  | Injected_transient -> "injected_transient"

type error = {
  cause : cause;
  op : string;
  node : int;
  level : int;
  scale_bits : int;
  headroom_bits : float;
  message : string;
}

exception Fhe_error of error

let error_message e = e.message
let transient e = match e.cause with Injected_transient -> true | _ -> false

let () =
  Printexc.register_printer (function
    | Fhe_error e ->
        Some
          (Format.asprintf "Fhe_error(%s: %s%s)" (cause_name e.cause) e.message
             (if e.node >= 0 then Format.asprintf " [node %d]" e.node else ""))
    | _ -> None)

let error ?node ?(level = -1) ?(scale_bits = -1) ?(noise = nan) cause ~op message =
  let node = match node with Some n -> n | None -> Obs.current_node () in
  let headroom_bits =
    if Float.is_nan noise then nan else Obs.Trace.headroom_bits noise
  in
  { cause; op; node; level; scale_bits; headroom_bits; message }

(* The single funnel for every runtime-constraint failure: exactly one
   final "fhe_error" instant on the ambient trace per raise, so a crashing
   unmanaged run (Figure 1a) ends its flight record with the faulting node
   and message. *)
let raise_error e =
  Obs.trace_instant ~name:"fhe_error"
    ?node:(if e.node >= 0 then Some e.node else None)
    ~detail:
      [
        ("message", Obs.Json.String e.message);
        ("cause", Obs.Json.String (cause_name e.cause));
        ("op", Obs.Json.String e.op);
      ]
    ();
  raise (Fhe_error e)

let failc cause ~op ?level ?scale_bits ?noise fmt =
  Format.kasprintf
    (fun message -> raise_error (error ?level ?scale_bits ?noise cause ~op message))
    fmt

type t = { prm : Params.t; rng : Prng.t; mutable ops : int }

let create ?(seed = 0x5EEDL) prm =
  (match Params.validate prm with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Evaluator.create: " ^ msg));
  { prm; rng = Prng.create seed; ops = 0 }

let params t = t.prm
let op_count t = t.ops

let pow2 bits = 2.0 ** bits

(* The error estimate is a root-mean-square propagation, not a worst-case
   interval bound: the operands' errors are already embodied in the slot
   values (they propagate through the arithmetic automatically), so only
   the *fresh* noise of each operation is injected into the slots, and the
   [err] field combines contributions in quadrature as independent noise
   does.  A worst-case bound would grow exponentially with the
   multiplicative depth and say nothing about real behaviour. *)
let rms2 a b = sqrt ((a *. a) +. (b *. b))

(* Slot kernels.  Jitter perturbs every slot by a deterministic
   pseudo-random amount bounded by [bound], turning the error *bound*
   bookkeeping into an actual end-to-end error measurable at decryption.
   Each kernel makes exactly one draw per slot, in slot order
   ([Prng.add_uniform]), perturbing a slot [v] by
   [v +. (lo +. ((hi -. lo) *. u))], so the noise streams are fixed by the
   op sequence alone.  They are plain loops into [Array.create_float]: the
   result array is the only allocation, never a closure or a boxed float
   per slot. *)
let jitter rng ~bound src =
  let dst = Array.create_float (Array.length src) in
  Prng.add_uniform rng ~bound ~src ~dst;
  dst

(* Apply an injected fault to the result of an operation.  Every draw —
   the firing decision in [Fault.draw] and the effect parameters here —
   comes from the injector's private stream, never from [t.rng], so the
   evaluator's noise sequence (and hence any fault-free re-execution) is
   untouched by the injector's presence. *)
let apply_fault f op (ct : Ciphertext.t) =
  match Fault.draw f ~op with
  | None -> ct
  | Some (Fault.Noise_spike, mag) ->
      let err = ct.Ciphertext.err *. pow2 mag in
      let slots = jitter (Fault.rng f) ~bound:err ct.Ciphertext.slots in
      Ciphertext.of_slots ~slots ~scale_bits:ct.scale_bits ~level:ct.level ~size:ct.size
        ~err
  | Some (Fault.Scale_drift, mag) ->
      Ciphertext.of_slots ~slots:ct.Ciphertext.slots
        ~scale_bits:(ct.scale_bits + int_of_float mag)
        ~level:ct.level ~size:ct.size ~err:ct.err
  | Some (Fault.Transient, _) ->
      failc Injected_transient ~op ~level:ct.Ciphertext.level
        ~scale_bits:ct.Ciphertext.scale_bits ~noise:ct.Ciphertext.err
        "%s: injected transient backend fault" op
  | Some (Fault.Slot_corrupt, mag) ->
      let n = Array.length ct.Ciphertext.slots in
      if n = 0 then ct
      else begin
        let i = Prng.int (Fault.rng f) ~bound:n in
        let amp = pow2 mag in
        let delta = Prng.uniform (Fault.rng f) ~lo:(amp /. 2.0) ~hi:amp in
        let sign = if Prng.float (Fault.rng f) < 0.5 then -1.0 else 1.0 in
        let slots = Array.copy ct.Ciphertext.slots in
        slots.(i) <- slots.(i) +. (sign *. delta);
        (* Bump the bookkept noise in quadrature so the corruption is
           visible to headroom monitoring, not only at decryption.
           [corrupted] records the PRE-fault checksum — the only checksum
           any ciphertext carries: real memory corruption mutates slots
           behind the scheme's back, so the recorded [chk] no longer
           matches, and that mismatch is exactly what boundary integrity
           validation uses to catch corruption too small for the noise
           monitors. *)
        Ciphertext.corrupted ct ~slots ~err:(rms2 ct.err amp)
      end

(* Per-op tracing: when an ambient trace is installed, record the result's
   scheme state (level/scale/size/noise) plus the operand noise, charging
   the Table 2 cost at [charge_level] (the operand level, or the target
   level for bootstrap — the same convention as Fhe_ir.Latency).  An
   interpreter-installed context overrides the cost with the node's
   freq-weighted attribution.  Without a trace this is one option check.
   An ambient fault injector, when installed, intercepts the result first
   (and may raise for a transient fault) so the recorded event reflects
   what the backend actually delivered. *)
let traced op cost_op ~charge_level ?(noise_before = 0.0) (ct : Ciphertext.t) =
  let ct = match Fault.current () with None -> ct | Some f -> apply_fault f op ct in
  (match Obs.current_trace () with
  | None -> ()
  | Some tr ->
      let cost_ms =
        match cost_op with
        | Some o -> Cost_model.cost o ~level:charge_level
        | None -> 0.0
      in
      Obs.Trace.record tr ~op ~cost_ms ~noise_before ~level:ct.Ciphertext.level
        ~scale_bits:ct.Ciphertext.scale_bits ~size:ct.Ciphertext.size
        ~noise:ct.Ciphertext.err ());
  ct

(* The detail list is built only under a trace: untraced, a rescale or
   modswitch allocates nothing beyond its result. *)
let level_transition name ~from_level ~to_level =
  match Obs.current_trace () with
  | None -> ()
  | Some tr ->
      Obs.Trace.instant tr ~name
        ~detail:
          [ ("from_level", Obs.Json.Int from_level); ("to_level", Obs.Json.Int to_level) ]
        ()

let capacity_ok prm ~scale_bits ~level =
  (* ct.level >= ceil(log(ct.scale)/log(q)) - 1, in bits *)
  let q = prm.Params.scale_bits in
  level >= ((scale_bits + q - 1) / q) - 1

let check_capacity t ~what ~scale_bits ~level =
  if not (capacity_ok t.prm ~scale_bits ~level) then
    failc Scale_overflow ~op:what ~level ~scale_bits
      "%s: scale overflow (scale 2^%d exceeds capacity at level %d)" what scale_bits
      level

let check_size ~what (ct : Ciphertext.t) =
  if ct.size <> 2 then
    failc Size_mismatch ~op:what ~level:ct.level ~scale_bits:ct.scale_bits
      ~noise:ct.err "%s: operand not relinearised (size %d)" what ct.size

let fresh_noise_bits = 10.0
let rotate_noise_bits = 12.0
let bootstrap_precision_bits = 22.0

let encode t ?scale_bits slots =
  let scale_bits = Option.value scale_bits ~default:t.prm.Params.waterline_bits in
  Plaintext.encode ~scale_bits slots

let encrypt t ?level ?scale_bits slots =
  t.ops <- t.ops + 1;
  let level = Option.value level ~default:t.prm.Params.input_level
  and scale_bits = Option.value scale_bits ~default:t.prm.Params.input_scale_bits in
  if level < 0 then failc Negative_level ~op:"encrypt" ~level "encrypt: negative level";
  check_capacity t ~what:"encrypt" ~scale_bits ~level;
  let err = pow2 (fresh_noise_bits -. float_of_int scale_bits) in
  let slots = jitter t.rng ~bound:err slots in
  traced "encrypt" None ~charge_level:level
    (Ciphertext.of_slots ~slots ~scale_bits ~level ~size:2 ~err)

let decrypt _t (ct : Ciphertext.t) =
  if ct.size <> 2 then
    failc Size_mismatch ~op:"decrypt" ~level:ct.level ~scale_bits:ct.scale_bits
      ~noise:ct.err "decrypt: ciphertext not relinearised";
  Array.copy ct.slots

let check_slots ~what a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then
    failc Slot_mismatch ~op:what "%s: slot count mismatch (%d vs %d)" what la lb

let sum_slots ~what a b =
  check_slots ~what a b;
  let out = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    out.(i) <- a.(i) +. b.(i)
  done;
  out

(* [a.(i) *. b.(i)] plus one draw per slot: [jitter] of the product. *)
let product_slots t ~what ~bound a b =
  check_slots ~what a b;
  let out = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    out.(i) <- a.(i) *. b.(i)
  done;
  Prng.add_uniform t.rng ~bound ~src:out ~dst:out;
  out

let add_cc t (a : Ciphertext.t) (b : Ciphertext.t) =
  t.ops <- t.ops + 1;
  check_size ~what:"add_cc" a;
  check_size ~what:"add_cc" b;
  if a.level <> b.level then
    failc Level_mismatch ~op:"add_cc" ~level:a.level ~scale_bits:a.scale_bits
      ~noise:a.err "add_cc: level mismatch (%d vs %d)" a.level b.level;
  if a.scale_bits <> b.scale_bits then
    failc Scale_mismatch ~op:"add_cc" ~level:a.level ~scale_bits:a.scale_bits
      ~noise:a.err "add_cc: scale mismatch (2^%d vs 2^%d)" a.scale_bits b.scale_bits;
  let slots = sum_slots ~what:"add_cc" a.slots b.slots in
  traced "add_cc" (Some Cost_model.Add_cc) ~charge_level:a.level
    ~noise_before:(Float.max a.err b.err)
    (Ciphertext.of_slots ~slots ~scale_bits:a.scale_bits ~level:a.level ~size:2
       ~err:(rms2 a.err b.err))

let add_cp t (a : Ciphertext.t) (pt : Plaintext.t) =
  t.ops <- t.ops + 1;
  check_size ~what:"add_cp" a;
  if a.scale_bits <> pt.scale_bits then
    failc Scale_mismatch ~op:"add_cp" ~level:a.level ~scale_bits:a.scale_bits
      ~noise:a.err "add_cp: scale mismatch (ct 2^%d vs pt 2^%d)" a.scale_bits
      pt.scale_bits;
  let slots = sum_slots ~what:"add_cp" a.slots pt.slots in
  traced "add_cp" (Some Cost_model.Add_cp) ~charge_level:a.level ~noise_before:a.err
    (Ciphertext.of_slots ~slots ~scale_bits:a.scale_bits ~level:a.level ~size:2
       ~err:(rms2 a.err pt.err))

let mul_err ~a_max ~b_max ~a_err ~b_err ~fresh =
  rms2 (rms2 (a_max *. b_err) (b_max *. a_err)) fresh

let mul_cc t (a : Ciphertext.t) (b : Ciphertext.t) =
  t.ops <- t.ops + 1;
  check_size ~what:"mul_cc" a;
  check_size ~what:"mul_cc" b;
  if a.level <> b.level then
    failc Level_mismatch ~op:"mul_cc" ~level:a.level ~scale_bits:a.scale_bits
      ~noise:a.err "mul_cc: level mismatch (%d vs %d)" a.level b.level;
  let scale_bits = a.scale_bits + b.scale_bits in
  check_capacity t ~what:"mul_cc" ~scale_bits ~level:a.level;
  let fresh = pow2 (fresh_noise_bits -. float_of_int scale_bits) in
  let err =
    mul_err ~a_max:(Ciphertext.max_abs a) ~b_max:(Ciphertext.max_abs b) ~a_err:a.err
      ~b_err:b.err ~fresh
  in
  let slots = product_slots t ~what:"mul_cc" ~bound:fresh a.slots b.slots in
  traced "mul_cc" (Some Cost_model.Mul_cc) ~charge_level:a.level
    ~noise_before:(Float.max a.err b.err)
    (Ciphertext.of_slots ~slots ~scale_bits ~level:a.level ~size:3 ~err)

let mul_cp t (a : Ciphertext.t) (pt : Plaintext.t) =
  t.ops <- t.ops + 1;
  check_size ~what:"mul_cp" a;
  let scale_bits = a.scale_bits + pt.scale_bits in
  check_capacity t ~what:"mul_cp" ~scale_bits ~level:a.level;
  let fresh = pow2 (fresh_noise_bits -. float_of_int scale_bits) in
  let err =
    mul_err ~a_max:(Ciphertext.max_abs a) ~b_max:pt.Plaintext.max_abs ~a_err:a.err
      ~b_err:pt.err ~fresh
  in
  let slots = product_slots t ~what:"mul_cp" ~bound:fresh a.slots pt.slots in
  traced "mul_cp" (Some Cost_model.Mul_cp) ~charge_level:a.level ~noise_before:a.err
    (Ciphertext.of_slots ~slots ~scale_bits ~level:a.level ~size:2 ~err)

let rotate t (ct : Ciphertext.t) k =
  t.ops <- t.ops + 1;
  check_size ~what:"rotate" ct;
  let n = Array.length ct.slots in
  if n = 0 then
    failc Slot_mismatch ~op:"rotate" ~level:ct.level ~scale_bits:ct.scale_bits
      ~noise:ct.err "rotate: empty ciphertext";
  let k = ((k mod n) + n) mod n in
  let extra = pow2 (rotate_noise_bits -. float_of_int ct.scale_bits) in
  (* slot [i] takes [ct.slots.((i + k) mod n)]: two blits, then the
     jitter in place, drawing in slot order *)
  let slots = Array.create_float n in
  Array.blit ct.slots k slots 0 (n - k);
  Array.blit ct.slots 0 slots (n - k) k;
  Prng.add_uniform t.rng ~bound:extra ~src:slots ~dst:slots;
  traced "rotate" (Some Cost_model.Rotate) ~charge_level:ct.level ~noise_before:ct.err
    (Ciphertext.of_slots ~slots ~scale_bits:ct.scale_bits ~level:ct.level ~size:2
       ~err:(rms2 ct.err extra))

let relin t (ct : Ciphertext.t) =
  t.ops <- t.ops + 1;
  if ct.size <> 3 then
    failc Size_mismatch ~op:"relin" ~level:ct.level ~scale_bits:ct.scale_bits
      ~noise:ct.err "relin: expected size-3 ciphertext (got %d)" ct.size;
  let extra = pow2 (rotate_noise_bits -. float_of_int ct.scale_bits) in
  let slots = jitter t.rng ~bound:extra ct.slots in
  traced "relin" (Some Cost_model.Relin) ~charge_level:ct.level ~noise_before:ct.err
    (Ciphertext.of_slots ~slots ~scale_bits:ct.scale_bits ~level:ct.level ~size:2
       ~err:(rms2 ct.err extra))

let rescale t (ct : Ciphertext.t) =
  t.ops <- t.ops + 1;
  check_size ~what:"rescale" ct;
  let q = t.prm.Params.scale_bits and qw = t.prm.Params.waterline_bits in
  if ct.level < 1 then
    failc Level_underflow ~op:"rescale" ~level:ct.level ~scale_bits:ct.scale_bits
      ~noise:ct.err "rescale: no level to spend (level %d)" ct.level;
  if ct.scale_bits < q + qw then
    failc Scale_underflow ~op:"rescale" ~level:ct.level ~scale_bits:ct.scale_bits
      ~noise:ct.err "rescale: scale 2^%d below q*q_w = 2^%d" ct.scale_bits (q + qw);
  let scale_bits = ct.scale_bits - q in
  let extra = pow2 (fresh_noise_bits -. float_of_int scale_bits) in
  let slots = jitter t.rng ~bound:extra ct.slots in
  level_transition "rescale" ~from_level:ct.level ~to_level:(ct.level - 1);
  traced "rescale" (Some Cost_model.Rescale) ~charge_level:ct.level ~noise_before:ct.err
    (Ciphertext.of_slots ~slots ~scale_bits ~level:(ct.level - 1) ~size:2
       ~err:(rms2 ct.err extra))

let modswitch t (ct : Ciphertext.t) =
  t.ops <- t.ops + 1;
  check_size ~what:"modswitch" ct;
  if ct.level < 1 then
    failc Level_underflow ~op:"modswitch" ~level:ct.level ~scale_bits:ct.scale_bits
      ~noise:ct.err "modswitch: no level to drop (level %d)" ct.level;
  check_capacity t ~what:"modswitch" ~scale_bits:ct.scale_bits ~level:(ct.level - 1);
  level_transition "modswitch" ~from_level:ct.level ~to_level:(ct.level - 1);
  (* The slots do not change, and no code writes into a ciphertext's
     slots: the result shares its operand's array. *)
  traced "modswitch" (Some Cost_model.Modswitch) ~charge_level:ct.level
    ~noise_before:ct.err
    (Ciphertext.of_slots ~slots:ct.slots ~scale_bits:ct.scale_bits
       ~level:(ct.level - 1) ~size:2 ~err:ct.err)

let bootstrap t (ct : Ciphertext.t) ~target_level =
  t.ops <- t.ops + 1;
  check_size ~what:"bootstrap" ct;
  if target_level < 1 || target_level > t.prm.Params.l_max then
    failc Target_out_of_range ~op:"bootstrap" ~level:ct.level
      ~scale_bits:ct.scale_bits ~noise:ct.err
      "bootstrap: target level %d outside [1, %d]" target_level t.prm.Params.l_max;
  let extra = pow2 (-.bootstrap_precision_bits) in
  let slots = jitter t.rng ~bound:extra ct.slots in
  level_transition "bootstrap" ~from_level:ct.level ~to_level:target_level;
  traced "bootstrap" (Some Cost_model.Bootstrap) ~charge_level:target_level
    ~noise_before:ct.err
    (Ciphertext.of_slots ~slots ~scale_bits:t.prm.Params.scale_bits ~level:target_level
       ~size:2 ~err:(rms2 ct.err extra))

let refresh t (ct : Ciphertext.t) =
  t.ops <- t.ops + 1;
  check_size ~what:"refresh" ct;
  let extra = pow2 (-.bootstrap_precision_bits) in
  let slots = jitter t.rng ~bound:extra ct.slots in
  level_transition "refresh" ~from_level:ct.level ~to_level:ct.level;
  traced "refresh" (Some Cost_model.Bootstrap) ~charge_level:ct.level
    ~noise_before:ct.err
    (Ciphertext.of_slots ~slots ~scale_bits:ct.scale_bits ~level:ct.level ~size:2
       ~err:extra)
