(* Shared pieces of the workloads: host timing against a speed probe,
   failure accounting, seeds and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let prm = Ckks.Params.default

(* Independent 64-bit stream [salt] of benchmark seed [seed]. *)
let mix seed salt =
  Int64.logxor
    (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
    (Int64.mul (Int64.of_int (salt + 1)) 0xBF58476D1CE4E5B9L)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- Host-time samples ------------------------------------------------------

   The reference host is a shared 2-vCPU VM whose speed drifts by up to
   1.6x in phases of several seconds.  The drift follows allocation-heavy
   code: the per-sample correlation between a ResNet-20 compile and
   [probe] (hashing, sorting and allocating, as the compiler does) is
   ~0.8, while a purely arithmetic loop on a preallocated buffer does not
   track it.  So every timed item runs right after one probe, and the
   sample kept is the item's time over the probe's.  A host figure is the
   median of those ratios times [reference_probe_s]: seconds at the
   reference host's speed.  Over 30-s windows of 14 samples this varied
   1-4 % (CV) where the fastest raw sample varied 14-18 % and the median
   raw sample 7-12 %.  The probe calls no code of the program, so a
   slower program still reads slower. *)

let probe () =
  let st = Random.State.make [| 42 |] in
  let h = Hashtbl.create 1024 in
  for i = 0 to 60_000 do
    Hashtbl.replace h (Random.State.int st 1_000_000) i
  done;
  let l = List.sort compare (List.init 60_000 (fun _ -> Random.State.int st 1_000_000)) in
  let a = Array.init 100_000 float_of_int in
  let sum = ref 0.0 in
  for _ = 1 to 5 do
    Array.iteri (fun i x -> sum := !sum +. (x *. float_of_int (i land 7))) a
  done;
  ignore (Sys.opaque_identity (h, l, !sum))

(* The probe's typical time on the reference host (2 vCPU, OCaml 5.1). *)
let reference_probe_s = 0.025

let probe_s () = snd (time probe)

(* A full major collection, untimed, so that the timed item after it starts
   from the same heap in every pass. *)
let settle () = Gc.full_major ()

type samples = (string, float list) Hashtbl.t

let samples () : samples = Hashtbl.create 16

let add (s : samples) key v =
  Hashtbl.replace s key (v :: Option.value ~default:[] (Hashtbl.find_opt s key))

let values (s : samples) key = Option.value ~default:[] (Hashtbl.find_opt s key)
let count s key = List.length (values s key)

let quantile xs p =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
      let n = List.length sorted in
      List.nth sorted (max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* One sample of [key]: [dt] seconds, taken right after a probe of [probe]
   seconds.  The raw time is kept for diagnostics. *)
let record s key ~probe dt =
  add s key (dt /. probe);
  add s (key ^ "/raw") dt

(* [f] timed right after a probe. *)
let measure s key f =
  let probe = probe_s () in
  let r, dt = time f in
  record s key ~probe dt;
  r

(* A host figure in seconds at the reference speed. *)
let host s key = reference_probe_s *. quantile (values s key) 0.5

let raw_quantile s key p = quantile (values s (key ^ "/raw")) p

(* --- Failure accounting ---------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally () = { attempted = 0; failed = 0; wrong = 0 }

(* One attempted operation.  A failure is printed, never dropped; [wrong]
   marks an incorrect output (as opposed to a request the system shed). *)
let check ?(wrong = true) t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if wrong then t.wrong <- t.wrong + 1;
    Printf.printf "FAILED %s\n%!" what
  end

(* --- Output ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = "\"" ^ String.escaped s ^ "\""

(* The report: one human-readable line per metric, with its sample count,
   then the result object as the last line of stdout.  A figure that could
   not be measured (not finite) makes the result incorrect. *)
let emit t metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-28s %18.6f %-10s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_float m.value) (json_string m.unit_))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.wrong = 0 && List.for_all (fun m -> Float.is_finite m.value) metrics)
    t.attempted t.failed body
