type kind = Noise_spike | Scale_drift | Transient | Slot_corrupt

let kind_name = function
  | Noise_spike -> "noise_spike"
  | Scale_drift -> "scale_drift"
  | Transient -> "transient"
  | Slot_corrupt -> "slot_corrupt"

type rule = {
  kind : kind;
  prob : float;
  mag : float;
  ops : string list;
  nodes : int list;
}

let rule ?(ops = []) ?(nodes = []) kind ~prob ~mag = { kind; prob; mag; ops; nodes }

type plan = { seed : int64; rules : rule list; budget : int }

type injection = {
  index : int;
  inj_kind : kind;
  inj_op : string;
  inj_node : int;
  inj_mag : float;
}

type t = {
  plan : plan;
  prng : Prng.t;
  mutable count : int;
  mutable log : injection list;  (* reversed *)
}

let create plan = { plan; prng = Prng.create plan.seed; count = 0; log = [] }
let rng t = t.prng
let injected t = t.count
let injections t = List.rev t.log

(* Ambient install: the evaluator's fault-off path is one option check per
   op, as for Obs.with_trace.  It is a process global rather than a field
   of Obs's domain-local context because Obs cannot name [t] (this library
   depends on obs, not the other way round). *)
let installed : t option ref = ref None

let with_faults t f =
  let saved = !installed in
  installed := Some t;
  Fun.protect ~finally:(fun () -> installed := saved) f

let current () = !installed

let budget_left t = t.plan.budget < 0 || t.count < t.plan.budget

let record t kind ~op ~node ~mag =
  let inj =
    { index = t.count; inj_kind = kind; inj_op = op; inj_node = node; inj_mag = mag }
  in
  t.count <- t.count + 1;
  t.log <- inj :: t.log;
  Obs.trace_instant ~name:"fault" ?node:(if node >= 0 then Some node else None)
    ~detail:
      [
        ("kind", Obs.Json.String (kind_name kind));
        ("op", Obs.Json.String op);
        ("node", Obs.Json.Int node);
        ("mag", Obs.Json.Float mag);
        ("index", Obs.Json.Int inj.index);
      ]
    ()

let rule_applies r ~op ~node =
  (match r.ops with [] -> true | ops -> List.mem op ops)
  && match r.nodes with [] -> true | nodes -> List.mem node nodes

let draw t ~op =
  if not (budget_left t) then None
  else begin
    let node = Obs.current_node () in
    (* Try rules in plan order; the probability draw happens only for
       rules whose filters match, so the stream consumption — and hence
       the whole campaign — is a deterministic function of the executed
       op/site sequence. *)
    let rec go = function
      | [] -> None
      | r :: rest ->
          if rule_applies r ~op ~node && Prng.float t.prng < r.prob then begin
            record t r.kind ~op ~node ~mag:r.mag;
            Some (r.kind, r.mag)
          end
          else go rest
    in
    go t.plan.rules
  end
