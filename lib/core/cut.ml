type edge =
  | Internal of { tail : int; head : int }
  | Boundary_in of { head : int }
  | Boundary_out of { tail : int }

type t = {
  edges : edge list;
  value : float;
  sink_side : int list;
  cert : Graphlib.Maxflow.certificate option;
  node_of : int array;
}

let pp_edge ppf = function
  | Internal { tail; head } -> Format.fprintf ppf "%%%d->%%%d" tail head
  | Boundary_in { head } -> Format.fprintf ppf "in->%%%d" head
  | Boundary_out { tail } -> Format.fprintf ppf "%%%d->out" tail

let pp ppf t =
  Format.fprintf ppf "@[<h>cut(%.3f ms): %a@]" t.value
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_edge)
    t.edges

let relabel f t =
  let edge = function
    | Internal { tail; head } -> Internal { tail = f tail; head = f head }
    | Boundary_in { head } -> Boundary_in { head = f head }
    | Boundary_out { tail } -> Boundary_out { tail = f tail }
  in
  {
    t with
    edges = List.map edge t.edges;
    sink_side = List.map f t.sink_side;
    node_of = Array.map (fun n -> if n < 0 then n else f n) t.node_of;
  }

type deferred = { cut : t; full : t Lazy.t }

let defer cut certify = { cut; full = lazy { cut with cert = Some (certify ()) } }
let settled cut = { cut; full = Lazy.from_val cut }
let uncertified d = d.cut
let certified d = Lazy.force d.full
