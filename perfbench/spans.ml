(* In-memory span recorder for the traced run: one span per call into a
   layer's public function, made from the benchmark's side of the call.
   Spans are kept in memory and written out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] at top level. *)
  item : string;  (** The model (or campaign) the call worked on. *)
  start_s : float;
  stop_s : float;
  minor_w : float;  (** Words allocated on the minor heap inside the span. *)
  probe_s : float;  (** The speed probe taken before the span's item. *)
}

type t = {
  mutable done_ : span list;
  mutable next : int;
  mutable stack : int list;
  mutable probe : float;  (** The latest speed probe, stamped on new spans. *)
}

let create () = { done_ = []; next = 0; stack = []; probe = Common.reference_probe_s }

(* Take a speed probe; the spans that follow are measured against it. *)
let probe t = t.probe <- Common.probe_s ()

(* A layer boundary: [f] timed as a span, recorded even when it raises. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { wrap = (fun _ f -> f ()) }

let recorder t ~item =
  {
    wrap =
      (fun name f ->
        let id = t.next in
        t.next <- id + 1;
        let parent = match t.stack with p :: _ -> p | [] -> -1 in
        t.stack <- id :: t.stack;
        let w0 = Gc.minor_words () in
        let start_s = Common.now () in
        let finish () =
          let stop_s = Common.now () in
          let minor_w = Gc.minor_words () -. w0 in
          t.stack <- List.tl t.stack;
          t.done_ <-
            { id; name; parent; item; start_s; stop_s; minor_w; probe_s = t.probe } :: t.done_
        in
        match f () with
        | r ->
            finish ();
            r
        | exception e ->
            finish ();
            raise e);
  }

let spans t = List.rev t.done_
let dur s = s.stop_s -. s.start_s

(* Share of a span's wall time that its direct children cover. *)
let coverage t (s : span) =
  let covered =
    List.fold_left (fun a c -> if c.parent = s.id then a +. dur c else a) 0.0 t.done_
  in
  if dur s > 0.0 then covered /. dur s else 1.0

let named t name = List.filter (fun s -> s.name = name) (spans t)

let items t name =
  List.sort_uniq String.compare (List.map (fun s -> s.item) (named t name))

(* Sum over items of the median [name] span, in ms at the reference speed
   (see Common.host). *)
let host_ms t name =
  let all = named t name in
  List.fold_left
    (fun acc item ->
      let ratios =
        List.filter_map (fun s -> if s.item = item then Some (dur s /. s.probe_s) else None) all
      in
      acc +. (1000.0 *. Common.reference_probe_s *. Common.quantile ratios 0.5))
    0.0 (items t name)

(* Sum over items of the minor words of each item's first [name] span, in
   millions; allocation repeats exactly, so the first span stands for all. *)
let first_minor_mw t name =
  let all = named t name in
  List.fold_left
    (fun acc item -> acc +. ((List.find (fun s -> s.item = item) all).minor_w /. 1e6))
    0.0 (items t name)

let min_coverage t name =
  List.fold_left (fun m s -> Float.min m (coverage t s)) 1.0 (named t name)

let write t path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"name\": %S, \"parent\": %d, \"item\": %S, \"start_s\": %.6f, \
         \"end_s\": %.6f, \"minor_words\": %.0f}"
        (if i = 0 then "" else ",\n")
        s.id s.name s.parent s.item s.start_s s.stop_s s.minor_w)
    (spans t);
  output_string oc "\n]\n";
  close_out oc
