module Program = Fhe_ir.Interp.Program
module Session = Fhe_ir.Interp.Session

type config = {
  max_attempts : int;
  backoff_ms : float;
  max_backoff_ms : float;
  checkpoint_budget_bytes : float option;
}

let default =
  {
    max_attempts = 3;
    backoff_ms = 5.0;
    max_backoff_ms = 80.0;
    checkpoint_budget_bytes = None;
  }

(* Headroom floor (bits) under which a ciphertext the static analysis
   predicted safe is considered fault-damaged. *)
let noise_floor_bits = 6.0

(* Relative trigger: observed headroom more than this many bits below the
   static prediction is damage even above the floor.  It must exceed the
   noise model's validated error ({!Fhe_ir.Noise_check.check_trace}'s
   10-bit tolerance) or clean runs would false-positive. *)
let noise_slack_bits = 12.0

type accounting = {
  recovery_ms_by_kind : (string * float) list;
  backoff_ms_total : float;
  capped_backoffs : int;
}

type stats = {
  retries : int;
  panic_refreshes : int;
  checkpoints : int;
  evictions : int;
  checkpoint_bytes_peak : float;
  recovery : accounting;
  injected_faults : int;
  held_checkpoints : int list;
}

let headroom = Obs.Trace.headroom_bits
let validations = Obs.Counter.make "recovery.validations"

module Smap = Map.Make (String)

let tally add zero kvs =
  Smap.bindings
    (List.fold_left
       (fun m (k, v) ->
         Smap.update k (fun prev -> Some (add (Option.value ~default:zero prev) v)) m)
       Smap.empty kvs)

let no_recovery =
  { recovery_ms_by_kind = []; backoff_ms_total = 0.0; capped_backoffs = 0 }

let merge accs =
  {
    recovery_ms_by_kind =
      tally ( +. ) 0.0 (List.concat_map (fun a -> a.recovery_ms_by_kind) accs);
    backoff_ms_total = List.fold_left (fun t a -> t +. a.backoff_ms_total) 0.0 accs;
    capped_backoffs = List.fold_left (fun t a -> t + a.capped_backoffs) 0 accs;
  }

let accounting_json a =
  Obs.Json.Obj
    [
      ( "recovery_ms_by_kind",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, Obs.Json.Float v)) a.recovery_ms_by_kind) );
      ("backoff_ms_total", Obs.Json.Float a.backoff_ms_total);
      ("capped_backoffs", Obs.Json.Int a.capped_backoffs);
    ]

(* Injection progress of the ambient injector; 0 when none is installed.
   Recovery compares marks of this counter to tell fault-tainted execution
   spans from clean ones. *)
let injected_now () =
  match Ckks.Fault.current () with None -> 0 | Some f -> Ckks.Fault.injected f

(* The fault kind blamed for a retry: the most recent injection at or
   after [mark] when there is one, otherwise [fallback] (the structured
   error cause, or the boundary check that fired). *)
let blame ~mark ~fallback =
  match Ckks.Fault.current () with
  | None -> fallback
  | Some f ->
      let recent =
        List.filter (fun i -> i.Ckks.Fault.index >= mark) (Ckks.Fault.injections f)
      in
      let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl in
      (match last recent with
      | Some i -> Ckks.Fault.kind_name i.Ckks.Fault.inj_kind
      | None -> fallback)

(* The run's float accounting in one all-float record: its fields hold
   unboxed floats, so an update allocates nothing, where a [float ref]
   that a closure captures boxes each value it is given. *)
type books = {
  mutable retained : float;
      (** Bytes of the retained checkpoints, kept as a running total: the
          sizes are integer-valued floats, so adding and subtracting
          stays exact. *)
  mutable bytes_peak : float;
  mutable backoff_total : float;
}

(* One boundary's validator verdicts, reset at each boundary and filled
   by a callback built once per run: a boundary whose values pass
   builds no closure, ref or option. *)
type scan = {
  mutable checked : int;
  mutable corrupt : (int * Ckks.Ciphertext.t) option;  (** Least failing id. *)
  mutable diverged : (int * Ckks.Ciphertext.t) option;  (** Least failing id. *)
  mutable noisy : (int * Ckks.Ciphertext.t) list;  (** Every failing value. *)
}

let keep_least found id ct =
  match found with Some (j, _) when j < id -> found | _ -> Some (id, ct)

type expectation = float array

let expect (noise : Fhe_ir.Noise_check.report) =
  Array.map
    (fun (i : Fhe_ir.Noise_check.info) -> headroom i.Fhe_ir.Noise_check.noise)
    noise.per_node

let run_program ?(config = default) ?trace ~noise prog ev env =
  let s = Session.create ?trace prog ev in
  let order = Program.order prog in
  let n = Array.length order in
  let info = Program.info prog in
  let predicted = noise in
  let budget =
    match config.checkpoint_budget_bytes with
    | Some b -> b
    | None -> Float.max (2.0 *. Program.peak_bytes prog) 1.0
  in
  let retries = ref 0 and refreshes = ref 0 in
  let n_checkpoints = ref 0 and evictions = ref 0 in
  let books = { retained = 0.0; bytes_peak = 0.0; backoff_total = 0.0 } in
  let capped = ref 0 in
  (* Recovery latency as (blamed kind, ms) charges, newest first: each
     rollback charges its wasted re-execution, then its backoff. *)
  let charges = ref [] in
  let start_mark = injected_now () in
  let fault_mark = ref start_mark in
  let attempts = ref 0 in
  (* The retained checkpoints, oldest first: [cp_at.(k)], [cp_bytes.(k)]
     and [cp_value.(k)], [k < !held], are their positions (ascending),
     sizes and values ([value_at k]).  Only the newest is ever restored,
     so it alone is kept as a session snapshot. *)
  let cp_at = ref (Array.make 16 0) and cp_bytes = ref (Array.make 16 0.0) in
  let cp_value = ref (Array.make 16 0.0) in
  let held = ref 0 in
  (* The newest checkpoint, the rollback target: the run's first one is
     taken at position 0, before any node runs. *)
  let newest = ref (Session.snapshot s) in
  (* A checkpoint's value is the simulated latency of the span it saves
     re-executing: its position's prefix cost minus that of the
     next-older retained checkpoint (position 0 past the oldest).
     Stored in place, so no float is returned and boxed. *)
  let set_value k =
    !cp_value.(k) <-
      Program.prefix_ms prog !cp_at.(k)
      -. Program.prefix_ms prog (if k = 0 then 0 else !cp_at.(k - 1))
  in
  (* Validation mark: every live ciphertext whose write stamp
     ({!Session.writes}) is at most [!validated] has passed all three
     boundary validators.  A ciphertext never changes once built, and the
     validators' verdicts depend only on its node and value, so a boundary
     checks just the values written since the mark.  A rollback keeps
     the mark: it restores the newest checkpoint, taken right after the
     last boundary that passed (or panic-refreshed), so each restored
     value is either one that boundary validated, with its stamp still
     under the mark, or a refresh it made, stamped past the mark and
     checked at the next boundary like any new value. *)
  let validated = ref 0 in
  let pos = ref 0 in
  let instant name detail =
    match trace with
    | Some tr -> Obs.Trace.instant tr ~name ~detail ()
    | None -> ()
  in
  (* Evict down to the budget by MINIMUM marginal re-execution value,
     never touching the newest (it is the rollback target).
     Oldest-first eviction could discard the checkpoint guarding the most
     expensive suffix of the run; value-based eviction keeps it and sheds
     the cheapest span instead.  Ties evict the oldest. *)
  let evict_to_budget () =
    while books.retained > budget && !held > 1 do
      let at = !cp_at and bytes = !cp_bytes and values = !cp_value in
      let best = ref 0 and best_value = ref values.(0) in
      for k = 1 to !held - 2 do
        let v = values.(k) in
        if v < !best_value then begin
          best := k;
          best_value := v
        end
      done;
      incr evictions;
      books.retained <- books.retained -. bytes.(!best);
      let tail = !held - !best - 1 in
      Array.blit at (!best + 1) at !best tail;
      Array.blit bytes (!best + 1) bytes !best tail;
      Array.blit values (!best + 1) values !best tail;
      decr held;
      (* The evicted checkpoint's successor now saves its span too. *)
      set_value !best
    done
  in
  let hold cp =
    if !held = Array.length !cp_at then begin
      cp_at := Array.append !cp_at !cp_at;
      cp_bytes := Array.append !cp_bytes !cp_bytes;
      cp_value := Array.append !cp_value !cp_value
    end;
    let bytes = Session.snapshot_bytes cp in
    !cp_at.(!held) <- Session.snapshot_at cp;
    !cp_bytes.(!held) <- bytes;
    set_value !held;
    incr held;
    incr n_checkpoints;
    books.retained <- books.retained +. bytes;
    if books.retained > books.bytes_peak then books.bytes_peak <- books.retained;
    evict_to_budget ()
  in
  let take_checkpoint i =
    if !cp_at.(!held - 1) <> i then begin
      let cp = Session.snapshot s in
      newest := cp;
      hold cp
    end;
    attempts := 0;
    fault_mark := injected_now ()
  in
  let do_rollback ~why =
    let cp = !newest in
    let kind = blame ~mark:!fault_mark ~fallback:why in
    incr retries;
    let before = Session.latency_ms s in
    let resume = Session.rollback s cp in
    let wasted = before -. Session.latency_ms s in
    incr attempts;
    let raw = config.backoff_ms *. (2.0 ** float_of_int (!attempts - 1)) in
    let delay = Float.min raw config.max_backoff_ms in
    if delay < raw then incr capped;
    Session.charge_ms s delay;
    books.backoff_total <- books.backoff_total +. delay;
    charges := (kind, delay) :: (kind, wasted) :: !charges;
    instant "rollback"
      [
        ("to", Obs.Json.Int resume);
        ("attempt", Obs.Json.Int !attempts);
        ("blame", Obs.Json.String kind);
        ("backoff_ms", Obs.Json.Float delay);
      ];
    Obs.log_warn ~event:"recovery.rollback"
      ~fields:
        [
          ("to", Obs.Json.Int resume);
          ("attempt", Obs.Json.Int !attempts);
          ("blame", Obs.Json.String kind);
          ("backoff_ms", Obs.Json.Float delay);
        ]
      (Printf.sprintf "rolled back to node %d (%s)" resume kind);
    fault_mark := injected_now ();
    pos := resume
  in
  let handle_exec_error e =
    let faults_since = injected_now () > !fault_mark in
    let retryable = Ckks.Evaluator.transient e || faults_since in
    if retryable && !attempts < config.max_attempts then
      do_rollback ~why:(Ckks.Evaluator.cause_name e.Ckks.Evaluator.cause)
    else raise (Ckks.Evaluator.Fhe_error e)
  in
  let beyond_repair id (ct : Ckks.Ciphertext.t) msg =
    Ckks.Evaluator.raise_error
      (Ckks.Evaluator.error ~node:id ~level:ct.Ckks.Ciphertext.level
         ~scale_bits:ct.Ckks.Ciphertext.scale_bits ~noise:ct.Ckks.Ciphertext.err
         Ckks.Evaluator.State_divergence ~op:"recovery" msg)
  in
  (* One pass over the values written since the mark keeps the least-id
     value failing each of the first two validators and every value
     failing the third.  Slot integrity comes first: a corrupted slot far
     below the noise floor changes neither level, scale nor the bookkept
     noise estimate, so the structural and noise validators wave it
     through — only the checksum carried from construction time can
     expose it. *)
  let scan = { checked = 0; corrupt = None; diverged = None; noisy = [] } in
  let validate id (ct : Ckks.Ciphertext.t) =
    scan.checked <- scan.checked + 1;
    if not (Ckks.Ciphertext.integrity_ok ct) then scan.corrupt <- keep_least scan.corrupt id ct;
    let expect = info.(id) in
    if
      expect.Fhe_ir.Scale_check.is_ct
      && (ct.Ckks.Ciphertext.level <> expect.Fhe_ir.Scale_check.level
         || ct.Ckks.Ciphertext.scale_bits <> expect.Fhe_ir.Scale_check.scale_bits)
    then scan.diverged <- keep_least scan.diverged id ct;
    if
      id < Array.length predicted
      &&
      let actual = headroom ct.Ckks.Ciphertext.err in
      let pred = predicted.(id) in
      (* Damaged iff the observed headroom fell below a floor the static
         analysis predicted safe — either the absolute floor, or the
         node's own predicted headroom minus the validated model slack (a
         spike can hurt precision long before the absolute floor is
         near). *)
      (actual < noise_floor_bits && pred >= noise_floor_bits)
      || pred -. actual > noise_slack_bits
    then scan.noisy <- (id, ct) :: scan.noisy
  in
  let handle_boundary i =
    let upto = Session.writes s in
    scan.checked <- 0;
    scan.corrupt <- None;
    scan.diverged <- None;
    scan.noisy <- [];
    Session.iter_live_cts ~after:!validated s validate;
    if scan.checked > 0 then Obs.Counter.add validations scan.checked;
    let faults_since = injected_now () > !fault_mark in
    match (scan.corrupt, scan.diverged, scan.noisy) with
    | Some (id, (ct : Ckks.Ciphertext.t)), _, _ ->
        if faults_since && !attempts < config.max_attempts then
          do_rollback ~why:"slot_integrity"
        else
          beyond_repair id ct
            (Printf.sprintf
               "recovery: node %d failed slot-integrity validation (checksum mismatch) \
                beyond repair"
               id)
    | None, Some (id, (ct : Ckks.Ciphertext.t)), _ ->
        if faults_since && !attempts < config.max_attempts then
          do_rollback ~why:"state_divergence"
        else
          beyond_repair id ct
            (Printf.sprintf
               "recovery: node %d diverged from the plan (level %d scale %d, expected \
                level %d scale %d) beyond repair"
               id ct.Ckks.Ciphertext.level ct.Ckks.Ciphertext.scale_bits
               info.(id).Fhe_ir.Scale_check.level info.(id).Fhe_ir.Scale_check.scale_bits)
    | None, None, (_ :: _ as noisy) ->
        if faults_since && !attempts < config.max_attempts then
          do_rollback ~why:"noise_floor"
        else begin
          (* Retries exhausted (or nothing to retry against): re-bootstrap
             the damaged ciphertexts in place, in ascending id, and move
             on.  The refreshed values take stamps past [upto], so the next
             boundary checks them. *)
          validated := upto;
          List.iter
            (fun (id, (ct : Ckks.Ciphertext.t)) ->
              let before = headroom ct.Ckks.Ciphertext.err in
              let c' = Session.refresh s id in
              incr refreshes;
              instant "panic_refresh"
                [
                  ("node", Obs.Json.Int id);
                  ("headroom_before_bits", Obs.Json.Float before);
                  ("headroom_after_bits", Obs.Json.Float (headroom c'.Ckks.Ciphertext.err));
                ];
              Obs.log_warn ~event:"recovery.panic_refresh"
                ~fields:
                  [
                    ("node", Obs.Json.Int id);
                    ("headroom_before_bits", Obs.Json.Float before);
                    ( "headroom_after_bits",
                      Obs.Json.Float (headroom c'.Ckks.Ciphertext.err) );
                  ]
                (Printf.sprintf "panic-refreshed node %d" id))
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) noisy);
          if i < n then take_checkpoint i
        end
    | None, None, [] ->
        validated := upto;
        if i < n then take_checkpoint i
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Session.clear_ctx s)
      (fun () ->
        hold !newest;
        while !pos < n do
          let i = !pos in
          (match Session.exec s env order.(i) with
          | () -> pos := i + 1
          | exception Ckks.Evaluator.Fhe_error e -> handle_exec_error e);
          if !pos > i && Program.boundary prog !pos then handle_boundary !pos
        done;
        (* Empty graphs still get their output validation pass. *)
        if n = 0 then handle_boundary 0;
        Session.finish s)
  in
  ( result,
    {
      retries = !retries;
      panic_refreshes = !refreshes;
      checkpoints = !n_checkpoints;
      evictions = !evictions;
      checkpoint_bytes_peak = books.bytes_peak;
      recovery =
        {
          recovery_ms_by_kind = tally ( +. ) 0.0 (List.rev !charges);
          backoff_ms_total = books.backoff_total;
          capped_backoffs = !capped;
        };
      injected_faults = injected_now () - start_mark;
      held_checkpoints = Array.to_list (Array.sub !cp_at 0 !held);
    } )

let run ?config ?trace ?region_of ?noise ev g env =
  let prog = Program.make ?trace ?region_of (Ckks.Evaluator.params ev) g in
  (* Default to the sound (uncapped) static estimate: it never predicts
     less noise than the run accumulates, so the noise validator cannot
     false-positive — a fault-free supervised run stays bit-identical to
     {!Fhe_ir.Interp.run}. *)
  let noise =
    match noise with
    | Some report -> report
    | None ->
        Fhe_ir.Noise_check.analyse ~magnitude_cap:Float.infinity ~scales:(Program.info prog)
          ~order:(Program.order prog) (Program.params prog) g
  in
  run_program ?config ?trace ~noise:(expect noise) prog ev env
