(* Lightweight observability for the compile pipeline: wall-clock spans,
   monotonic counters, float minima, and dependency-free JSON.  A profile
   is installed as the ambient collector for the dynamic extent of one
   compile; instrumentation sites record through the conveniences at the
   bottom, which are no-ops when no profile is installed. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* Shortest decimal representation that parses back to the same float;
     non-finite values have no JSON spelling and degrade to null. *)
  let float_repr f =
    if Float.is_nan f || Float.abs f = infinity then "null"
    else begin
      let repr = ref (Printf.sprintf "%.17g" f) in
      (try
         for p = 1 to 16 do
           let c = Printf.sprintf "%.*g" p f in
           if float_of_string c = f then begin
             repr := c;
             raise Exit
           end
         done
       with Exit -> ());
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') !repr then !repr
      else !repr ^ ".0"
    end

  let rec to_buf buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            to_buf buf v)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            to_buf buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    to_buf buf v;
    Buffer.contents buf

  let pp ppf v = Format.pp_print_string ppf (to_string v)

  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail "expected %c at offset %d" c !pos
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal at offset %d" !pos
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape");
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* encode the BMP code point as UTF-8 *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> fail "bad escape \\%c" c);
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_frac = ref false in
      if peek () = Some '-' then advance ();
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' -> true
        | '.' | 'e' | 'E' | '+' | '-' ->
            is_frac := true;
            true
        | _ -> false
      do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if !is_frac then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or } at offset %d" !pos
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ] at offset %d" !pos
            in
            elements ();
            List (List.rev !items)
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail "unexpected %c at offset %d" c !pos
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
        else Ok v
    | exception Parse m -> Error m
    | exception Failure m -> Error m

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

module Timer = struct
  type t = float

  let start () = Unix.gettimeofday ()
  let elapsed_ms t = 1000.0 *. (Unix.gettimeofday () -. t)
end

(* Counter handles: names registered once each, numbered densely in
   registration order.  A profile keeps one int slot per handle beside
   its by-name table, and every reader merges the two. *)
module Handles = struct
  let lock = Mutex.create ()
  let names = ref [||]

  let register name =
    Mutex.protect lock (fun () ->
        let known = !names in
        match Array.find_index (String.equal name) known with
        | Some h -> h
        | None ->
            names := Array.append known [| name |];
            Array.length known)
end

module Profile = struct
  type span = { name : string; depth : int; start_ms : float; dur_ms : float }

  type t = {
    epoch : float;
    mutable finished : span list;  (* reverse completion order *)
    mutable stack : (string * float) list;  (* open spans *)
    counters : (string, int) Hashtbl.t;
    mutable slots : int array;  (* per handle; [unset] until bumped *)
    mutable minima : (string * float) list;  (* by name, unsorted *)
  }

  let unset = min_int

  let create () =
    {
      epoch = Unix.gettimeofday ();
      finished = [];
      stack = [];
      counters = Hashtbl.create 16;
      slots = Array.make (Array.length !Handles.names) unset;
      minima = [];
    }

  let now_ms t = 1000.0 *. (Unix.gettimeofday () -. t.epoch)

  let incr ?(by = 1) t name =
    Hashtbl.replace t.counters name
      (by + Option.value (Hashtbl.find_opt t.counters name) ~default:0)

  (* A handle registered after [t] was created gets its slot here. *)
  let bump t h by =
    if h >= Array.length t.slots then begin
      let grown = Array.make (Array.length !Handles.names) unset in
      Array.blit t.slots 0 grown 0 (Array.length t.slots);
      t.slots <- grown
    end;
    let v = t.slots.(h) in
    t.slots.(h) <- (if v = unset then by else v + by)

  let observe_min t name v =
    let v = match List.assoc_opt name t.minima with Some m -> Float.min m v | None -> v in
    t.minima <- (name, v) :: List.remove_assoc name t.minima

  let minimum t name = List.assoc_opt name t.minima

  let span t name f =
    let start = now_ms t in
    let depth = List.length t.stack in
    t.stack <- (name, start) :: t.stack;
    Fun.protect f ~finally:(fun () ->
        (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
        t.finished <-
          { name; depth; start_ms = start; dur_ms = now_ms t -. start } :: t.finished)

  let spans t =
    List.sort
      (fun a b -> compare (a.start_ms, a.depth) (b.start_ms, b.depth))
      (List.rev t.finished)

  let counters t =
    let merged = Hashtbl.copy t.counters in
    let names = !Handles.names in
    Array.iteri
      (fun h v ->
        if v <> unset then
          Hashtbl.replace merged names.(h)
            (v + Option.value (Hashtbl.find_opt merged names.(h)) ~default:0))
      t.slots;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [] (* det-ok: sorted *)
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let counter t name = Option.value (List.assoc_opt name (counters t)) ~default:0

  (* [counters] stands in for the profile's own: a flight file adds its
     log sink's loss to the document without touching the ledger.  The
     [minima] object appears only when some minimum was observed, so a
     compile profile serialises as it always has. *)
  let to_json_with ~counters t =
    let span_json s =
      Json.Obj
        [
          ("name", Json.String s.name);
          ("depth", Json.Int s.depth);
          ("start_ms", Json.Float s.start_ms);
          ("dur_ms", Json.Float s.dur_ms);
        ]
    in
    let minima = List.sort (fun (a, _) (b, _) -> compare a b) t.minima in
    Json.Obj
      ([
         ("spans", Json.List (List.map span_json (spans t)));
         ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
       ]
      @
      if minima = [] then []
      else [ ("minima", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) minima)) ])

  let to_json t = to_json_with ~counters:(counters t) t

  exception Malformed of string

  (* The inverse of [to_json]; a missing section loads as empty. *)
  let of_json j =
    let t = create () in
    let bad fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
    let number what = function
      | Json.Int i -> float_of_int i
      | Json.Float f -> f
      | _ -> bad "%s is not a number" what
    in
    let section name =
      match Json.member name j with
      | None -> []
      | Some (Json.Obj fs) -> fs
      | Some _ -> bad "profile section %S is not an object" name
    in
    let span s =
      match Json.(member "name" s, member "depth" s, member "start_ms" s, member "dur_ms" s) with
      | Some (Json.String name), Some (Json.Int depth), Some start, Some dur ->
          t.finished <-
            { name; depth; start_ms = number "start_ms" start; dur_ms = number "dur_ms" dur }
            :: t.finished
      | _ -> bad "malformed span"
    in
    match
      (match Json.member "spans" j with
      | None -> ()
      | Some (Json.List ss) -> List.iter span ss
      | Some _ -> bad "profile section \"spans\" is not a list");
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Int v -> Hashtbl.replace t.counters k v
          | _ -> bad "counter %s has no integer value" k)
        (section "counters");
      List.iter (fun (k, v) -> observe_min t k (number ("minimum " ^ k) v)) (section "minima")
    with
    | () -> Ok t
    | exception Malformed m -> Error m

  let pp ppf t =
    let top = List.filter (fun s -> s.depth = 0) (spans t) in
    Format.fprintf ppf "@[<v>phases:";
    List.iter (fun s -> Format.fprintf ppf "@ %-14s %10.3f ms" s.name s.dur_ms) top;
    List.iter
      (fun (k, v) -> Format.fprintf ppf "@ %-32s %10d" k v)
      (counters t);
    Format.fprintf ppf "@]"
end

module Trace = struct
  (* Runtime execution tracing: a ring-buffered flight recorder of per-op
     CKKS events.  The simulated evaluator records the scheme-state facts
     (level, scale, size, noise before/after); the DFG interpreter supplies
     attribution (node id, region, loop frequency, Table 2 cost) through a
     mutable context set before each node executes.  Timestamps live on a
     *simulated* timeline: the clock advances by each op's freq-weighted
     Table 2 cost, so the exported trace shows where the modelled latency
     goes, not where the host CPU went. *)

  type op_event = {
    seq : int;
    op : string;
    node : int;
    region : int;
    freq : int;
    level : int;
    scale_bits : int;
    size : int;
    noise_before : float;
    noise_after : float;
    start_ms : float;
    dur_ms : float;
  }

  type instant = {
    iseq : int;
    iname : string;
    inode : int;
    iregion : int;
    its_ms : float;
    detail : (string * Json.t) list;
  }

  type event = Op of op_event | Instant of instant

  type ctx = { node : int; region : int; freq : int; cost_ms : float }

  type t = {
    capacity : int;
    buf : event option array;
    mutable next : int;  (* total events recorded, including overwritten *)
    mutable clock : float;  (* simulated timeline, ms *)
    mutable ctx : ctx option;
  }

  let create ?(capacity = 65536) () =
    if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
    { capacity; buf = Array.make capacity None; next = 0; clock = 0.0; ctx = None }

  let recorded t = t.next
  let dropped t = max 0 (t.next - t.capacity)
  let clock_ms t = t.clock
  let advance_clock t ms = t.clock <- t.clock +. ms
  let set_ctx t ctx = t.ctx <- ctx

  let push t e =
    t.buf.(t.next mod t.capacity) <- Some e;
    t.next <- t.next + 1

  let record t ~op ?(cost_ms = 0.0) ?(noise_before = 0.0) ~level ~scale_bits ~size
      ~noise () =
    let node, region, freq, cost_ms =
      match t.ctx with
      | Some c -> (c.node, c.region, c.freq, c.cost_ms)
      | None -> (-1, -1, 1, cost_ms)
    in
    let start_ms = t.clock in
    t.clock <- t.clock +. cost_ms;
    push t
      (Op
         {
           seq = t.next;
           op;
           node;
           region;
           freq;
           level;
           scale_bits;
           size;
           noise_before;
           noise_after = noise;
           start_ms;
           dur_ms = cost_ms;
         })

  let instant t ~name ?node ?(detail = []) () =
    let inode, iregion =
      match (node, t.ctx) with
      | Some n, Some c -> (n, c.region)
      | Some n, None -> (n, -1)
      | None, Some c -> (c.node, c.region)
      | None, None -> (-1, -1)
    in
    push t
      (Instant { iseq = t.next; iname = name; inode; iregion; its_ms = t.clock; detail })

  let events t =
    let stored = min t.next t.capacity in
    let first = t.next - stored in
    List.filter_map
      (fun i -> t.buf.((first + i) mod t.capacity))
      (List.init stored (fun i -> i))

  let op_events t =
    List.filter_map (function Op e -> Some e | Instant _ -> None) (events t)

  (* Noise is an absolute per-slot RMS error estimate; headroom is how many
     bits of precision remain before that error reaches magnitude 1.  Zero
     (never produced by the evaluator — every op injects fresh noise) and
     sub-2^-200 errors are clamped so the exported counters stay finite. *)
  let headroom_bits err =
    if err <= 0.0 then 200.0 else Float.max 0.0 (Float.min 200.0 (-.Float.log2 err))

  let usec ms = Float.round (ms *. 1000.0)

  (* Chrome trace-event JSON (Perfetto-loadable).  One process holds the
     execution: ops are "X" complete events on per-region threads, noise /
     level / scale are process-wide counter tracks sampled at each op's end,
     and rescale/modswitch/bootstrap/fhe_error markers are instants. *)
  let tid_of_region r = if r < 0 then 1 else r + 2

  let chrome_events t =
    let pid = 1 in
    let evs = events t in
    let meta =
      Json.Obj
        [
          ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int pid);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String "resbm execute") ]);
        ]
    in
    let regions =
      List.sort_uniq compare
        (List.map (function Op e -> e.region | Instant i -> i.iregion) evs)
    in
    let threads =
      List.concat_map
        (fun r ->
          let tid = tid_of_region r in
          let tname = if r < 0 then "(unattributed)" else Printf.sprintf "region %d" r in
          [
            Json.Obj
              [
                ("name", Json.String "thread_name");
                ("ph", Json.String "M");
                ("pid", Json.Int pid);
                ("tid", Json.Int tid);
                ("args", Json.Obj [ ("name", Json.String tname) ]);
              ];
            Json.Obj
              [
                ("name", Json.String "thread_sort_index");
                ("ph", Json.String "M");
                ("pid", Json.Int pid);
                ("tid", Json.Int tid);
                ("args", Json.Obj [ ("sort_index", Json.Int tid) ]);
              ];
          ])
        regions
    in
    let body =
      List.concat_map
        (function
          | Op e ->
              let op =
                Json.Obj
                  [
                    ("name", Json.String e.op);
                    ("cat", Json.String "op");
                    ("ph", Json.String "X");
                    ("ts", Json.Float (usec e.start_ms));
                    ("dur", Json.Float (usec e.dur_ms));
                    ("pid", Json.Int pid);
                    ("tid", Json.Int (tid_of_region e.region));
                    ( "args",
                      Json.Obj
                        [
                          ("node", Json.Int e.node);
                          ("region", Json.Int e.region);
                          ("freq", Json.Int e.freq);
                          ("level", Json.Int e.level);
                          ("scale_bits", Json.Int e.scale_bits);
                          ("size", Json.Int e.size);
                          ("noise_before_bits", Json.Float (headroom_bits e.noise_before));
                          ("noise_after_bits", Json.Float (headroom_bits e.noise_after));
                        ] );
                  ]
              in
              let counter cname value =
                Json.Obj
                  [
                    ("name", Json.String cname);
                    ("cat", Json.String "state");
                    ("ph", Json.String "C");
                    ("ts", Json.Float (usec (e.start_ms +. e.dur_ms)));
                    ("pid", Json.Int pid);
                    ("args", Json.Obj [ (cname, value) ]);
                  ]
              in
              [
                op;
                counter "noise_headroom_bits" (Json.Float (headroom_bits e.noise_after));
                counter "level" (Json.Int e.level);
                counter "scale_bits" (Json.Int e.scale_bits);
              ]
          | Instant i ->
              [
                Json.Obj
                  [
                    ("name", Json.String i.iname);
                    ("cat", Json.String "instant");
                    ("ph", Json.String "i");
                    ("ts", Json.Float (usec i.its_ms));
                    ("pid", Json.Int pid);
                    ("tid", Json.Int (tid_of_region i.iregion));
                    ("s", Json.String "t");
                    ("args", Json.Obj (("node", Json.Int i.inode) :: i.detail));
                  ];
              ])
        evs
    in
    (meta :: threads) @ body

  let event_to_json = function
    | Op e ->
        Json.Obj
          [
            ("type", Json.String "op");
            ("seq", Json.Int e.seq);
            ("op", Json.String e.op);
            ("node", Json.Int e.node);
            ("region", Json.Int e.region);
            ("freq", Json.Int e.freq);
            ("level", Json.Int e.level);
            ("scale_bits", Json.Int e.scale_bits);
            ("size", Json.Int e.size);
            ("noise_before", Json.Float e.noise_before);
            ("noise_after", Json.Float e.noise_after);
            ("start_ms", Json.Float e.start_ms);
            ("dur_ms", Json.Float e.dur_ms);
          ]
    | Instant i ->
        Json.Obj
          ([
             ("type", Json.String "instant");
             ("seq", Json.Int i.iseq);
             ("name", Json.String i.iname);
             ("node", Json.Int i.inode);
             ("region", Json.Int i.iregion);
             ("ts_ms", Json.Float i.its_ms);
           ]
          @ match i.detail with [] -> [] | d -> [ ("detail", Json.Obj d) ])

  let to_jsonl t = List.map (fun e -> Json.to_string (event_to_json e)) (events t)
end

(* The midpoint-averaged median, for the few multi-trial timings the bench
   harness still summarises (Table 3 and the warm-cache ratio). *)
module Stat = struct
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then nan
    else if n land 1 = 1 then a.(n / 2)
    else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))
end

(* Leveled structured logging: a ring-buffered flight recorder of log
   records, the narrative companion to Trace's op events.  Records carry
   automatic context (compile id, pass, executing node, domain id —
   filled in by the ambient helpers at the bottom of this file) plus free-form
   structured fields, and a simulated-clock stamp when a trace was
   ambient at emission time so the record lands as an instant on the
   execution timeline.  The sink is mutex-protected, so a caller may
   share one across its own domains. *)
module Log = struct
  type level = Debug | Info | Warn | Error

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_name = function
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  type record = {
    lseq : int;
    level : level;
    event : string;
    msg : string;
    ts_ms : float;  (* host wall clock, relative to sink creation *)
    sim_ms : float option;  (* simulated trace clock at emission, if traced *)
    compile_id : int;  (* -1 = outside any compile *)
    pass : string;  (* "" = no pass context *)
    region : int;  (* -1 = unattributed *)
    node : int;  (* -1 = unattributed *)
    domain : int;  (* emitting domain id *)
    fields : (string * Json.t) list;
  }

  type t = {
    capacity : int;
    epoch : float;
    buf : record option array;
    mutable next : int;  (* total records kept, including overwritten *)
    lock : Mutex.t;
  }

  let create ?(capacity = 8192) () =
    if capacity < 1 then invalid_arg "Log.create: capacity must be >= 1";
    {
      capacity;
      epoch = Unix.gettimeofday ();
      buf = Array.make capacity None;
      next = 0;
      lock = Mutex.create ();
    }

  let record t ~level ~event ?(msg = "") ?sim_ms ?(compile_id = -1) ?(pass = "")
      ?(region = -1) ?(node = -1) ?(fields = []) () =
    let ts_ms = 1000.0 *. (Unix.gettimeofday () -. t.epoch) in
    let domain = (Domain.self () :> int) in
    Mutex.protect t.lock (fun () ->
        let r =
          {
            lseq = t.next;
            level;
            event;
            msg;
            ts_ms;
            sim_ms;
            compile_id;
            pass;
            region;
            node;
            domain;
            fields;
          }
        in
        t.buf.(t.next mod t.capacity) <- Some r;
        t.next <- t.next + 1)

  let recorded t = Mutex.protect t.lock (fun () -> t.next)
  let dropped t = Mutex.protect t.lock (fun () -> max 0 (t.next - t.capacity))

  let records t =
    Mutex.protect t.lock (fun () ->
        let stored = min t.next t.capacity in
        let first = t.next - stored in
        List.filter_map
          (fun i -> t.buf.((first + i) mod t.capacity))
          (List.init stored (fun i -> i)))

  let record_to_json r =
    Json.Obj
      ([
         ("seq", Json.Int r.lseq);
         ("level", Json.String (level_name r.level));
         ("event", Json.String r.event);
         ("msg", Json.String r.msg);
         ("ts_ms", Json.Float r.ts_ms);
       ]
      @ (match r.sim_ms with None -> [] | Some s -> [ ("sim_ms", Json.Float s) ])
      @ [
          ("compile_id", Json.Int r.compile_id);
          ("pass", Json.String r.pass);
          ("region", Json.Int r.region);
          ("node", Json.Int r.node);
          ("domain", Json.Int r.domain);
        ]
      @ match r.fields with [] -> [] | fs -> [ ("fields", Json.Obj fs) ])

  let record_of_json j =
    let ( let* ) = Result.bind in
    let str field =
      match Json.member field j with
      | Some (Json.String s) -> Ok s
      | _ -> Error (Printf.sprintf "log record field %S missing or not a string" field)
    in
    let int field =
      match Json.member field j with
      | Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "log record field %S missing or not an int" field)
    in
    let num field =
      match Json.member field j with
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | _ -> Error (Printf.sprintf "log record field %S missing or not a number" field)
    in
    let* lseq = int "seq" in
    let* level =
      let* name = str "level" in
      match level_of_name name with
      | Some l -> Ok l
      | None -> Error (Printf.sprintf "unknown log level %S" name)
    in
    let* event = str "event" in
    let* msg = str "msg" in
    let* ts_ms = num "ts_ms" in
    let* sim_ms =
      match Json.member "sim_ms" j with
      | None -> Ok None
      | Some (Json.Float f) -> Ok (Some f)
      | Some (Json.Int i) -> Ok (Some (float_of_int i))
      | Some _ -> Error "log record field \"sim_ms\" not a number"
    in
    let* compile_id = int "compile_id" in
    let* pass = str "pass" in
    let* region = int "region" in
    let* node = int "node" in
    let* domain = int "domain" in
    let* fields =
      match Json.member "fields" j with
      | None -> Ok []
      | Some (Json.Obj fs) -> Ok fs
      | Some _ -> Error "log record field \"fields\" not an object"
    in
    Ok { lseq; level; event; msg; ts_ms; sim_ms; compile_id; pass; region; node; domain; fields }

  (* Log records as Perfetto instants.  A record stamped with a simulated
     clock lands on the execution process at that simulated time, on the
     thread of the region it is attributed to; a compile-side record
     (no [sim_ms]) lands on the compile process at its host timestamp, so
     both correlate with the spans already on those timelines. *)
  let chrome_events rs =
    List.map
      (fun r ->
        let pid, ts, tid =
          match r.sim_ms with
          | Some s -> (1, Trace.usec s, Trace.tid_of_region r.region)
          | None -> (0, Trace.usec r.ts_ms, 0)
        in
        let ctx =
          (if r.compile_id >= 0 then [ ("compile_id", Json.Int r.compile_id) ] else [])
          @ (if r.pass <> "" then [ ("pass", Json.String r.pass) ] else [])
          @ (if r.region >= 0 then [ ("region", Json.Int r.region) ] else [])
          @ if r.node >= 0 then [ ("node", Json.Int r.node) ] else []
        in
        Json.Obj
          [
            ("name", Json.String r.event);
            ("cat", Json.String ("log." ^ level_name r.level));
            ("ph", Json.String "i");
            ("ts", Json.Float ts);
            ("pid", Json.Int pid);
            ("tid", Json.Int tid);
            ("s", Json.String "t");
            ( "args",
              Json.Obj
                ((("level", Json.String (level_name r.level))
                  :: (if r.msg <> "" then [ ("msg", Json.String r.msg) ] else []))
                @ [ ("seq", Json.Int r.lseq); ("domain", Json.Int r.domain) ]
                @ ctx @ r.fields) );
          ])
      rs
end

(* Generic explanation rendering: hierarchical cost waterfalls and
   structural JSON diffs.  Everything here is presentation-layer — the
   graph-aware logic that produces the rows and digests lives in
   [Resbm.Explain]; this module only folds, sorts, renders and compares,
   so serving/multi-backend reports can reuse it unchanged. *)
module Explain = struct
  (* --- cost waterfall ----------------------------------------------------- *)

  type row = { group : string; bucket : string; label : string; cost : float }

  type leaf = { leaf_label : string; leaf_cost : float }

  type bucket = {
    bucket_label : string;
    bucket_cost : float;
    bucket_count : int;
    leaves : leaf list;  (* top-k by cost; the rest are folded *)
    folded : int;
    folded_cost : float;
  }

  type group = {
    group_label : string;
    group_cost : float;
    group_count : int;
    buckets : bucket list;
  }

  type waterfall = {
    total : float;
    groups : group list;
    shares : (string * float) list;
  }

  let attributed w = List.fold_left (fun acc g -> acc +. g.group_cost) 0.0 w.groups

  (* Deterministic fold: groups and buckets ordered by descending cost
     (label as tie-break), leaves likewise with only the top [top] kept
     individually — but never silently: the fold keeps the remainder as an
     explicit count + cost so the waterfall always sums to its total. *)
  let waterfall ?(top = 5) ?(shares = []) ~total rows =
    let by_cost c1 l1 c2 l2 =
      match compare c2 c1 with 0 -> compare l1 l2 | c -> c
    in
    let group_tbl = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let buckets =
          match Hashtbl.find_opt group_tbl r.group with
          | Some b -> b
          | None ->
              let b = Hashtbl.create 8 in
              Hashtbl.add group_tbl r.group b;
              b
        in
        let prev = Option.value (Hashtbl.find_opt buckets r.bucket) ~default:[] in
        Hashtbl.replace buckets r.bucket ({ leaf_label = r.label; leaf_cost = r.cost } :: prev))
      rows;
    (* Drained in label order; both levels are re-sorted by cost below. *)
    let bindings tbl =
      List.sort (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) (* det-ok: sorted above *)
    in
    let groups =
      List.map
        (fun (glabel, buckets) ->
          let bs =
            List.map
              (fun (blabel, leaves) ->
                let leaves =
                  List.sort
                    (fun a b -> by_cost a.leaf_cost a.leaf_label b.leaf_cost b.leaf_label)
                    leaves
                in
                let cost = List.fold_left (fun s l -> s +. l.leaf_cost) 0.0 leaves in
                let count = List.length leaves in
                let shown = List.filteri (fun i _ -> i < top) leaves in
                let folded = count - List.length shown in
                let folded_cost =
                  cost -. List.fold_left (fun s l -> s +. l.leaf_cost) 0.0 shown
                in
                {
                  bucket_label = blabel;
                  bucket_cost = cost;
                  bucket_count = count;
                  leaves = shown;
                  folded;
                  folded_cost;
                })
              (bindings buckets)
          in
          let bs =
            List.sort
              (fun a b -> by_cost a.bucket_cost a.bucket_label b.bucket_cost b.bucket_label)
              bs
          in
          let cost = List.fold_left (fun s b -> s +. b.bucket_cost) 0.0 bs in
          let count = List.fold_left (fun s b -> s + b.bucket_count) 0 bs in
          { group_label = glabel; group_cost = cost; group_count = count; buckets = bs })
        (bindings group_tbl)
    in
    let groups =
      List.sort
        (fun a b -> by_cost a.group_cost a.group_label b.group_cost b.group_label)
        groups
    in
    { total; groups; shares }

  let pct total v = if total <= 0.0 then 0.0 else 100.0 *. v /. total

  let pp ?(title = "cost waterfall") ppf w =
    Format.fprintf ppf "@[<v>%s: %.3f ms total@," title w.total;
    if w.shares <> [] then begin
      Format.fprintf ppf "shares:";
      List.iter
        (fun (name, v) -> Format.fprintf ppf " %s %.1f%%" name (pct w.total v))
        w.shares;
      Format.fprintf ppf "@,"
    end;
    List.iter
      (fun g ->
        Format.fprintf ppf "%-34s %12.3f ms %5.1f%% (%d nodes)@," g.group_label
          g.group_cost (pct w.total g.group_cost) g.group_count;
        List.iter
          (fun b ->
            Format.fprintf ppf "  %-32s %12.3f ms %5.1f%% (%d)@," b.bucket_label
              b.bucket_cost (pct w.total b.bucket_cost) b.bucket_count;
            List.iter
              (fun l ->
                Format.fprintf ppf "    %-30s %12.3f ms %5.1f%%@," l.leaf_label
                  l.leaf_cost (pct w.total l.leaf_cost))
              b.leaves;
            if b.folded > 0 then
              Format.fprintf ppf "    (+%d more)%*s %12.3f ms %5.1f%%@," b.folded
                (max 0 (30 - String.length (Printf.sprintf "(+%d more)" b.folded)))
                "" b.folded_cost (pct w.total b.folded_cost))
          g.buckets)
      w.groups;
    Format.fprintf ppf "attributed: %.3f ms of %.3f ms (%.2f%%)@]" (attributed w)
      w.total
      (pct w.total (attributed w))

  let to_json w =
    let leaf_json l =
      Json.Obj [ ("label", Json.String l.leaf_label); ("cost_ms", Json.Float l.leaf_cost) ]
    in
    let bucket_json b =
      Json.Obj
        [
          ("label", Json.String b.bucket_label);
          ("cost_ms", Json.Float b.bucket_cost);
          ("count", Json.Int b.bucket_count);
          ("top", Json.List (List.map leaf_json b.leaves));
          ("folded", Json.Int b.folded);
          ("folded_cost_ms", Json.Float b.folded_cost);
        ]
    in
    let group_json g =
      Json.Obj
        [
          ("label", Json.String g.group_label);
          ("cost_ms", Json.Float g.group_cost);
          ("count", Json.Int g.group_count);
          ("buckets", Json.List (List.map bucket_json g.buckets));
        ]
    in
    Json.Obj
      [
        ("total_ms", Json.Float w.total);
        ("attributed_ms", Json.Float (attributed w));
        ("shares", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) w.shares));
        ("groups", Json.List (List.map group_json w.groups));
      ]

  (* --- structural JSON diff ------------------------------------------------ *)

  type change = {
    path : string list;
    before : Json.t option;  (* None = added *)
    after : Json.t option;  (* None = removed *)
  }

  let rec json_equal a b =
    match (a, b) with
    | Json.Null, Json.Null -> true
    | Json.Bool x, Json.Bool y -> x = y
    | Json.Int x, Json.Int y -> x = y
    | Json.Float x, Json.Float y -> (Float.is_nan x && Float.is_nan y) || x = y
    | Json.Int x, Json.Float y | Json.Float y, Json.Int x -> float_of_int x = y
    | Json.String x, Json.String y -> x = y
    | Json.List x, Json.List y ->
        List.length x = List.length y && List.for_all2 json_equal x y
    | Json.Obj x, Json.Obj y ->
        let keys o = List.sort compare (List.map fst o) in
        keys x = keys y
        && List.for_all
             (fun (k, v) ->
               match List.assoc_opt k y with Some w -> json_equal v w | None -> false)
             x
    | _ -> false

  (* Objects align by key (order-insensitive — the stability under node
     renumbering comes from keying digests by content hashes), lists by
     index, scalars by value.  Every difference is reported at the deepest
     point where the two sides still align. *)
  let diff_json base cand =
    let changes = ref [] in
    let emit path before after = changes := { path; before; after } :: !changes in
    let rec go path a b =
      match (a, b) with
      | Json.Obj x, Json.Obj y ->
          let keys =
            List.sort_uniq compare (List.map fst x @ List.map fst y)
          in
          List.iter
            (fun k ->
              let path = path @ [ k ] in
              match (List.assoc_opt k x, List.assoc_opt k y) with
              | Some v, Some w -> go path v w
              | Some v, None -> emit path (Some v) None
              | None, Some w -> emit path None (Some w)
              | None, None -> ())
            keys
      | Json.List x, Json.List y when List.length x = List.length y ->
          List.iteri (fun i (v, w) -> go (path @ [ string_of_int i ]) v w)
            (List.combine x y)
      | _ -> if not (json_equal a b) then emit path (Some a) (Some b)
    in
    go [] base cand;
    List.rev !changes

  let path_to_string path = String.concat "/" path

  let change_to_json c =
    Json.Obj
      [
        ("path", Json.String (path_to_string c.path));
        ("before", Option.value c.before ~default:Json.Null);
        ("after", Option.value c.after ~default:Json.Null);
      ]

  let pp_change ppf c =
    let side = function Some j -> Json.to_string j | None -> "(absent)" in
    Format.fprintf ppf "%-40s %s -> %s"
      (path_to_string c.path)
      (side c.before) (side c.after)
end

(* Baseline regression gating: load two BENCH_resbm.json files, align
   rows by (model, manager), and emit a per-cell verdict.  Every cell but
   one comes from the cost model and planner (simulated latency,
   bootstrap and rescale counts, node counts, predicted precision, work
   counters, plan digests), so any drift at all is a real behaviour
   change and compares exactly.  The exception is [warm_speedup], a
   host-independent ratio gated against a floor. *)
module Bench_diff = struct
  let schema_version = 3
  let warm_speedup_min = 5.0

  type row = {
    model : string;
    manager : string;
    metrics : (string * float) list;
    warm_speedup : float;
    digest : Json.t;  (* structural plan digest (renumbering-stable; see Resbm.Explain) *)
    counters : (string * int) list;
        (* deterministic work counters (the profile's [counters] object) *)
  }

  type source = { version : int; git_rev : string; l_max : int; rows : row list }

  type verdict = Unchanged | Improved | Regressed | Incomparable

  let verdict_to_string = function
    | Unchanged -> "unchanged"
    | Improved -> "improved"
    | Regressed -> "regressed"
    | Incomparable -> "incomparable"

  type cell = {
    cmodel : string;
    cmanager : string;
    metric : string;
    base : float;
    cand : float;
    verdict : verdict;
  }

  type outcome = {
    cells : cell list;
    missing : (string * string) list;  (* rows in base absent from candidate *)
    added : (string * string) list;  (* rows in candidate absent from base *)
    plan_drift : ((string * string) * Explain.change list) list;
        (* per (model, manager): structural plan-digest changes.  Non-empty
           drift accompanies (and gates like) a metric change — it is the
           plan-level explanation of WHERE a metric regression came from. *)
  }

  (* The deterministic per-manager metrics and their preferred direction. *)
  let deterministic_metrics =
    [
      ("latency_ms", `Lower);
      ("bootstrap_count", `Lower);
      ("executed_rescales", `Lower);
      ("nodes", `Lower);
      ("predicted_precision_bits", `Higher);
    ]

  (* --- loading ------------------------------------------------------------ *)

  let number = function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | Json.Null -> Some nan
    | _ -> None

  let load content =
    let ( let* ) = Result.bind in
    let* json =
      match Json.of_string content with
      | Ok j -> Ok j
      | Error m -> Error ("not valid JSON: " ^ m)
    in
    let* () =
      match Json.member "bench" json with
      | Some (Json.String "resbm") -> Ok ()
      | _ -> Error "not a resbm bench file (missing \"bench\": \"resbm\")"
    in
    let* version =
      match Json.member "schema_version" json with
      | Some (Json.Int v) when v = schema_version -> Ok v
      | Some (Json.Int v) ->
          Error
            (Printf.sprintf
               "schema_version %d is not supported (this build reads version %d); \
                regenerate both files with `bench -- json`"
               v schema_version)
      | Some _ -> Error "schema_version is not an integer"
      | None ->
          Error
            "unversioned bench file (no schema_version field); regenerate it with \
             `bench -- json` before diffing"
    in
    let* l_max =
      match Json.member "l_max" json with
      | Some (Json.Int l) -> Ok l
      | _ -> Error "missing l_max header field"
    in
    let git_rev =
      match Json.member "git_rev" json with Some (Json.String s) -> s | _ -> "unknown"
    in
    let* models =
      match Json.member "models" json with
      | Some (Json.List ms) -> Ok ms
      | _ -> Error "missing models list"
    in
    let* rows =
      List.fold_left
        (fun acc model_json ->
          let* acc = acc in
          let* model =
            match Json.member "model" model_json with
            | Some (Json.String s) -> Ok s
            | _ -> Error "model entry without a name"
          in
          let* managers =
            match Json.member "managers" model_json with
            | Some (Json.List ms) -> Ok ms
            | _ -> Error (Printf.sprintf "model %s has no managers list" model)
          in
          List.fold_left
            (fun acc mgr_json ->
              let* acc = acc in
              let* manager =
                match Json.member "manager" mgr_json with
                | Some (Json.String s) -> Ok s
                | _ -> Error (Printf.sprintf "manager entry of %s without a name" model)
              in
              let metrics =
                List.filter_map
                  (fun (name, _) ->
                    Option.bind (Json.member name mgr_json) number
                    |> Option.map (fun v -> (name, v)))
                  deterministic_metrics
              in
              let* warm_speedup =
                match Option.bind (Json.member "warm_speedup" mgr_json) number with
                | Some v -> Ok v
                | None ->
                    Error (Printf.sprintf "row %s/%s has no warm_speedup" model manager)
              in
              let* digest =
                match Json.member "plan_digest" mgr_json with
                | Some d -> Ok d
                | None ->
                    Error (Printf.sprintf "row %s/%s has no plan_digest" model manager)
              in
              let* counters =
                match Json.member "counters" mgr_json with
                | Some (Json.Obj kvs) ->
                    Ok
                      (List.filter_map
                         (function k, Json.Int v -> Some (k, v) | _ -> None)
                         kvs)
                | _ ->
                    Error (Printf.sprintf "row %s/%s has no counters object" model manager)
              in
              Ok ({ model; manager; metrics; warm_speedup; digest; counters } :: acc))
            (Ok acc) managers)
        (Ok []) models
    in
    Ok { version; git_rev; l_max; rows = List.rev rows }

  (* --- diffing ------------------------------------------------------------ *)

  let float_equal a b = (Float.is_nan a && Float.is_nan b) || a = b

  let diff ~base ~cand =
    if base.l_max <> cand.l_max then
      Error
        (Printf.sprintf "l_max differs (%d vs %d): the files measure different sweeps"
           base.l_max cand.l_max)
    else begin
      let key r = (r.model, r.manager) in
      let cand_of k = List.find_opt (fun r -> key r = k) cand.rows in
      let missing =
        List.filter_map
          (fun r -> if cand_of (key r) = None then Some (key r) else None)
          base.rows
      in
      let added =
        List.filter_map
          (fun r ->
            if List.exists (fun b -> key b = key r) base.rows then None else Some (key r))
          cand.rows
      in
      let paired =
        List.filter_map (fun b -> Option.map (fun c -> (b, c)) (cand_of (key b))) base.rows
      in
      let cells =
        List.concat_map
          (fun (b, c) ->
            let cell metric bv cv verdict =
              {
                cmodel = b.model;
                cmanager = b.manager;
                metric;
                base = bv;
                cand = cv;
                verdict;
              }
            in
            let det =
              List.filter_map
                (fun (metric, direction) ->
                  match
                    (List.assoc_opt metric b.metrics, List.assoc_opt metric c.metrics)
                  with
                  | None, None -> None
                  | bv, cv ->
                      let bv = Option.value bv ~default:nan
                      and cv = Option.value cv ~default:nan in
                      Some
                        (cell metric bv cv
                           (if float_equal bv cv then Unchanged
                            else if Float.is_nan bv || Float.is_nan cv then Incomparable
                            else if
                              match direction with `Lower -> cv < bv | `Higher -> cv > bv
                            then Improved
                            else Regressed)))
                deterministic_metrics
            in
            (* Work counters gate exactly, like the metrics above: a planner
               that does more or less work for the same plan invalidates the
               baseline.  Profiles omit zero counters, so a name absent on
               one side reads as 0.  Fewer counts read as improved. *)
            let counter_cells =
              let get l name =
                float_of_int (Option.value (List.assoc_opt name l) ~default:0)
              in
              List.sort_uniq compare (List.map fst b.counters @ List.map fst c.counters)
              |> List.map (fun name ->
                     let bv = get b.counters name and cv = get c.counters name in
                     cell ("counters." ^ name) bv cv
                       (if bv = cv then Unchanged else if cv < bv then Improved else Regressed))
            in
            (* The warm-cache contract: the CANDIDATE's cold/warm compile
               median ratio must clear [warm_speedup_min] — a cache that
               stopped hitting shows up here as Regressed.  The ratio is
               self-normalising, so the host it ran on does not matter and
               the baseline's own ratio is shown, never compared. *)
            let speedup =
              cell "warm_speedup" b.warm_speedup c.warm_speedup
                (if c.warm_speedup >= warm_speedup_min then Unchanged else Regressed)
            in
            det @ counter_cells @ [ speedup ])
          paired
      in
      let plan_drift =
        List.filter_map
          (fun (b, c) ->
            match Explain.diff_json b.digest c.digest with
            | [] -> None
            | changes -> Some (key b, changes))
          paired
      in
      Ok { cells; missing; added; plan_drift }
    end

  (* --- gating -------------------------------------------------------------- *)

  let changes o = List.filter (fun c -> c.verdict <> Unchanged) o.cells

  (* 0 = pass, 2 = gate failure.  Any drift — improvements included — is
     a failure: a better bootstrap count still invalidates the committed
     baseline, and the baseline refresh must be deliberate. *)
  let exit_code o =
    if o.missing <> [] || o.added <> [] || changes o <> [] || o.plan_drift <> [] then 2
    else 0

  (* --- reporting ----------------------------------------------------------- *)

  let cell_to_json c =
    Json.Obj
      [
        ("model", Json.String c.cmodel);
        ("manager", Json.String c.cmanager);
        ("metric", Json.String c.metric);
        ("base", Json.Float c.base);
        ("candidate", Json.Float c.cand);
        ("verdict", Json.String (verdict_to_string c.verdict));
      ]

  let count o v = List.length (List.filter (fun c -> c.verdict = v) o.cells)

  let outcome_to_json o =
    let pair_json (m, g) =
      Json.Obj [ ("model", Json.String m); ("manager", Json.String g) ]
    in
    Json.Obj
      [
        ("cells", Json.List (List.map cell_to_json o.cells));
        ("missing", Json.List (List.map pair_json o.missing));
        ("added", Json.List (List.map pair_json o.added));
        ( "plan_drift",
          Json.List
            (List.map
               (fun ((m, g), changes) ->
                 Json.Obj
                   [
                     ("model", Json.String m);
                     ("manager", Json.String g);
                     ( "changes",
                       Json.List (List.map Explain.change_to_json changes) );
                   ])
               o.plan_drift) );
        ( "summary",
          Json.Obj
            [
              ("unchanged", Json.Int (count o Unchanged));
              ("improved", Json.Int (count o Improved));
              ("regressed", Json.Int (count o Regressed));
              ("incomparable", Json.Int (count o Incomparable));
              ("missing", Json.Int (List.length o.missing));
              ("added", Json.Int (List.length o.added));
              ( "plan_drift",
                Json.Int
                  (List.fold_left
                     (fun acc (_, cs) -> acc + List.length cs)
                     0 o.plan_drift) );
            ] );
      ]

  let value_text v =
    if Float.is_nan v then "-"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3f" v

  let pp_cell ppf c =
    Format.fprintf ppf "%-12s %-12s %-25s %12s -> %-12s %s%s" c.cmodel c.cmanager c.metric
      (value_text c.base) (value_text c.cand)
      (verdict_to_string c.verdict)
      (if c.metric = "warm_speedup" then Printf.sprintf " (floor %.1f)" warm_speedup_min
       else "")

  let pp_outcome ?(all = false) ppf o =
    let interesting =
      List.filter (fun c -> all || c.verdict <> Unchanged) o.cells
    in
    Format.fprintf ppf "@[<v>";
    if interesting = [] && o.missing = [] && o.added = [] && o.plan_drift = [] then
      Format.fprintf ppf "no changes: %d cells unchanged@," (List.length o.cells)
    else begin
      List.iter (fun c -> Format.fprintf ppf "%a@," pp_cell c) interesting;
      List.iter
        (fun (m, g) -> Format.fprintf ppf "%-12s %-12s row missing from candidate@," m g)
        o.missing;
      List.iter
        (fun (m, g) -> Format.fprintf ppf "%-12s %-12s row added in candidate@," m g)
        o.added;
      (* The plan-level explanation of the metric drift above: which
         placements, cut values or levels actually moved. *)
      List.iter
        (fun ((m, g), changes) ->
          Format.fprintf ppf "%-12s %-12s plan drift (%d structural changes):@," m g
            (List.length changes);
          List.iter
            (fun c -> Format.fprintf ppf "  %a@," Explain.pp_change c)
            changes)
        o.plan_drift
    end;
    Format.fprintf ppf
      "%d cells: %d unchanged, %d improved, %d regressed, %d incomparable%s%s@]"
      (List.length o.cells) (count o Unchanged) (count o Improved) (count o Regressed)
      (count o Incomparable)
      (if o.missing <> [] then Printf.sprintf ", %d missing" (List.length o.missing)
       else "")
      (if o.added <> [] then Printf.sprintf ", %d added" (List.length o.added) else "")
end

(* Rule-based health evaluation over a finished run's profile and log
   records: each rule compares one aggregate against a threshold
   and the verdict is healthy iff no rule fails.  Rules that need signals
   the run did not produce (no traced execution, no chaos campaign) stay
   applicable=false and pass vacuously, so one evaluator serves compile,
   trace and chaos flights alike. *)
module Health = struct
  type severity = Pass | Warn | Fail

  let severity_name = function Pass -> "pass" | Warn -> "warn" | Fail -> "fail"

  (* The fixed thresholds every flight is judged against. *)
  let headroom_floor_bits = 4.0
  let recovery_rate_floor = 0.9
  let slo_attainment_floor = 0.95

  type check = {
    rule : string;
    severity : severity;
    applicable : bool;
    value : float;  (* NaN when not applicable *)
    threshold : float;
    detail : string;
  }

  type verdict = { healthy : bool; checks : check list }

  let evaluate ?(records = []) p =
    let count = Profile.counter p in
    let check rule ~applicable ~warn_only ~ok ~value ~threshold detail =
      let severity =
        if (not applicable) || ok then Pass else if warn_only then Warn else Fail
      in
      { rule; severity; applicable; value; threshold; detail }
    in
    let headroom =
      let minimum = Profile.minimum p "noise_headroom_bits" in
      let applicable = Option.is_some minimum in
      let v = Option.value minimum ~default:nan in
      check "noise-headroom" ~applicable ~warn_only:false
        ~ok:(v >= headroom_floor_bits)
        ~value:v ~threshold:headroom_floor_bits
        (if applicable then
           Printf.sprintf "minimum traced noise headroom %.1f bits (floor %.1f)" v
             headroom_floor_bits
         else "no traced noise-headroom observations")
    in
    let recovery =
      let faulted = count "chaos_faulted_total" in
      let recovered = count "chaos_recovered_total" in
      let applicable = faulted > 0 in
      let rate =
        if applicable then float_of_int recovered /. float_of_int faulted else nan
      in
      check "recovery-rate" ~applicable ~warn_only:false
        ~ok:((not applicable) || rate >= recovery_rate_floor)
        ~value:rate ~threshold:recovery_rate_floor
        (if applicable then
           Printf.sprintf "%d/%d faulted trials recovered (rate %.3f, floor %.3f)"
             recovered faulted rate recovery_rate_floor
         else "no faulted chaos trials")
    in
    let slo =
      (* Serving campaigns count [serve_admitted_total] /
         [serve_completed_total] on the profile; attainment is the
         fraction of admitted requests completed within their deadline
         (shed requests never count against the SLO — shedding is the
         intended response to overload, missing deadlines is not). *)
      let admitted = count "serve_admitted_total" in
      let completed = count "serve_completed_total" in
      let applicable = admitted > 0 in
      let rate =
        if applicable then float_of_int completed /. float_of_int admitted else nan
      in
      check "slo-attainment" ~applicable ~warn_only:false
        ~ok:((not applicable) || rate >= slo_attainment_floor)
        ~value:rate ~threshold:slo_attainment_floor
        (if applicable then
           Printf.sprintf
             "%d/%d admitted requests completed in SLO (attainment %.3f, floor %.3f)"
             completed admitted rate slo_attainment_floor
         else "no admitted serving requests")
    in
    let errors =
      let v =
        List.length (List.filter (fun r -> r.Log.level = Log.Error) records)
      in
      check "error-logs" ~applicable:(records <> []) ~warn_only:true ~ok:(v = 0)
        ~value:(float_of_int v) ~threshold:0.0
        (Printf.sprintf "%d error-level log records" v)
    in
    let rings =
      let v = count "trace_dropped_events" + count "log_dropped_records" in
      check "ring-overflow" ~applicable:true ~warn_only:true ~ok:(v = 0)
        ~value:(float_of_int v) ~threshold:0.0
        (Printf.sprintf "%d trace events / log records lost to ring wrap-around" v)
    in
    let checks = [ headroom; recovery; slo; errors; rings ] in
    { healthy = not (List.exists (fun c -> c.severity = Fail) checks); checks }

  let exit_code v = if v.healthy then 0 else 2

  let check_to_json c =
    Json.Obj
      [
        ("rule", Json.String c.rule);
        ("severity", Json.String (severity_name c.severity));
        ("applicable", Json.Bool c.applicable);
        ("value", Json.Float c.value);
        ("threshold", Json.Float c.threshold);
        ("detail", Json.String c.detail);
      ]

  let to_json v =
    Json.Obj
      [
        ("healthy", Json.Bool v.healthy);
        ("checks", Json.List (List.map check_to_json v.checks));
      ]

  let pp ppf v =
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun c ->
        Format.fprintf ppf "%-5s %-18s %s%s@,"
          (String.uppercase_ascii (severity_name c.severity))
          c.rule c.detail
          (if c.applicable then "" else " (not applicable)"))
      v.checks;
    Format.fprintf ppf "verdict: %s@]" (if v.healthy then "healthy" else "UNHEALTHY")
end

(* A flight file: one run's log records and profile, the input Health
   judges offline. *)
module Flight = struct
  let version = 2

  (* The sink's loss goes into the document's counters, not the profile,
     so exporting twice writes the same bytes. *)
  let to_json sink p =
    let name = "log_dropped_records" in
    let counters = Profile.counters p in
    let prior = Option.value (List.assoc_opt name counters) ~default:0 in
    let counters =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        ((name, prior + Log.dropped sink) :: List.remove_assoc name counters)
    in
    Json.Obj
      [
        ("resbm_flight", Json.Int version);
        ("records", Json.List (List.map Log.record_to_json (Log.records sink)));
        ("profile", Profile.to_json_with ~counters p);
      ]

  let of_json json =
    match Json.member "resbm_flight" json with
    | Some (Json.Int v) when v = version -> (
        let records =
          match Json.member "records" json with
          | Some (Json.List rs) ->
              List.filter_map (fun r -> Result.to_option (Log.record_of_json r)) rs
          | _ -> []
        in
        match Json.member "profile" json with
        | None -> Ok (records, Profile.create ())
        | Some j -> (
            match Profile.of_json j with
            | Ok p -> Ok (records, p)
            | Error msg -> Error ("bad profile section: " ^ msg)))
    | Some (Json.Int v) ->
        Error
          (Printf.sprintf "flight file version %d is not supported (this build reads version %d)"
             v version)
    | _ -> Error "not a resbm flight file"
end

(* Profile spans in the same Chrome trace-event dialect, so one Perfetto
   timeline can hold the compile pipeline (one pid) next to the simulated
   execution (another). *)
let profile_chrome_events p =
  let pid = 0 in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "resbm compile") ]);
      ]
  in
  meta
  :: List.map
       (fun (s : Profile.span) ->
         Json.Obj
           [
             ("name", Json.String s.name);
             ("cat", Json.String "compile");
             ("ph", Json.String "X");
             ("ts", Json.Float (Trace.usec s.start_ms));
             ("dur", Json.Float (Trace.usec s.dur_ms));
             ("pid", Json.Int pid);
             ("tid", Json.Int 0);
             ("args", Json.Obj [ ("depth", Json.Int s.depth) ]);
           ])
       (Profile.spans p)

let chrome_trace events =
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

(* The ambient context: every handle the instrumentation sites read, in
   one domain-local record.  A domain a library caller spawns gets a fresh
   record (no handles, no node) until it installs its own; within one
   domain each [with_*] sets one field and restores it after, also on an
   exception.  The fields are mutable so the interpreter's per-node
   {!set_node} is two stores, not an allocation. *)
type ctx = {
  mutable profile : Profile.t option;
  mutable trace : Trace.t option;
  mutable log : Log.t option;
  mutable compile_id : int;  (* -1 = outside any compile *)
  mutable pass : string;  (* "" = no pass *)
  mutable node : int;  (* DFG node executing; -1 = none *)
  mutable region : int;  (* its region; -1 = none or unattributed *)
}

let ctx_key : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        profile = None;
        trace = None;
        log = None;
        compile_id = -1;
        pass = "";
        node = -1;
        region = -1;
      })

let ctx () = Domain.DLS.get ctx_key

let scoped get set v f =
  let c = ctx () in
  let saved = get c in
  set c v;
  Fun.protect f ~finally:(fun () -> set c saved)

let with_profile p f =
  scoped (fun c -> c.profile) (fun c v -> c.profile <- v) (Some p) f

let current () = (ctx ()).profile

let incr ?by name =
  match current () with Some p -> Profile.incr ?by p name | None -> ()

module Counter = struct
  type t = int

  let make = Handles.register
  let bump h = match current () with Some p -> Profile.bump p h 1 | None -> ()
  let add h by = match current () with Some p -> Profile.bump p h by | None -> ()
end

let span name f = match current () with Some p -> Profile.span p name f | None -> f ()

let with_trace tr f = scoped (fun c -> c.trace) (fun c v -> c.trace <- v) (Some tr) f
let current_trace () = (ctx ()).trace

let trace_instant ~name ?node ?detail () =
  match current_trace () with
  | Some tr -> Trace.instant tr ~name ?node ?detail ()
  | None -> ()

let set_node ~region n =
  let c = ctx () in
  c.node <- n;
  c.region <- region

let current_node () = (ctx ()).node

(* --- ambient structured logging ------------------------------------------ *)

let with_log sink f = scoped (fun c -> c.log) (fun c v -> c.log <- v) (Some sink) f

(* Entering a pass inside a compile keeps the compile id.  When no sink is
   installed the context is not even read, so un-logged callers pay one
   option check. *)
let with_log_ctx ?compile_id ?pass f =
  if Option.is_none (ctx ()).log then f ()
  else
    let f =
      match pass with
      | None -> f
      | Some p -> fun () -> scoped (fun c -> c.pass) (fun c v -> c.pass <- v) p f
    in
    match compile_id with
    | None -> f ()
    | Some id -> scoped (fun c -> c.compile_id) (fun c v -> c.compile_id <- v) id f

let log ~level ~event ?(msg = "") ?fields () =
  let c = ctx () in
  match c.log with
  | None -> ()
  | Some sink ->
      let sim_ms = Option.map Trace.clock_ms c.trace in
      Log.record sink ~level ~event ~msg ?sim_ms ~compile_id:c.compile_id ~pass:c.pass
        ~region:c.region ~node:c.node ?fields ()

let log_debug ~event ?fields msg = log ~level:Log.Debug ~event ~msg ?fields ()
let log_info ~event ?fields msg = log ~level:Log.Info ~event ~msg ?fields ()
let log_warn ~event ?fields msg = log ~level:Log.Warn ~event ~msg ?fields ()
let log_error ~event ?fields msg = log ~level:Log.Error ~event ~msg ?fields ()
