(** Maximum flow / minimum s-t cut with real-valued capacities (Dinic).

    This is the min-cut engine behind the paper's SMOPLC (Algorithm 4) and
    BTSPLC (Algorithm 5).  Capacities are floats; [infinity] is a legal
    capacity and is used both for super-source/super-sink arcs and for the
    reverse arcs that make the source side of the cut closed under
    predecessors (so every source-to-sink path crosses the cut exactly
    once — the property SMO/bootstrap insertion relies on). *)

type t

val create : int -> t
(** [create n] is an empty flow network over nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:float -> unit
(** Add a directed arc in O(1) (adjacency lists are materialised once by
    the first [max_flow]).  Negative capacities raise [Invalid_argument]. *)

type stats = {
  nodes : int;
  arcs : int;  (** Arc records, i.e. 2 per [add_edge] (forward + residual). *)
  bfs_phases : int;  (** Level-graph constructions run by Dinic so far. *)
  aug_paths : int;  (** Augmenting paths pushed so far. *)
}

val stats : t -> stats
(** Counters of the work done on this network.  [bfs_phases] and
    [aug_paths] are 0 until [max_flow] runs.  The same counters are also
    reported to the ambient {!Obs} profile under ["maxflow.*"]. *)

val max_flow : t -> source:int -> sink:int -> float
(** Run Dinic's algorithm and return the max-flow value.  Consumes the
    capacities; call at most once per network. *)

type cut = {
  value : float;  (** Total capacity crossing the cut. *)
  source_side : bool array;  (** [source_side.(v)] iff [v] is on the source side. *)
  edges : (int * int) list;  (** Saturated arcs from source side to sink side. *)
}

val min_cut : t -> source:int -> sink:int -> cut
(** Max-flow followed by a residual-graph reachability pass.  Only arcs
    that were added with a finite capacity are reported in [edges]. *)

(** One user arc of the network with its final flow assignment.  [fa_cap]
    is the capacity as added ([infinity] is legal); [fa_flow] is the net
    flow Dinic routed through it (always [>= 0] and [<= fa_cap]). *)
type flow_arc = { fa_src : int; fa_dst : int; fa_cap : float; fa_flow : float }

(** A self-contained optimality certificate for a min cut: the full flow
    assignment plus the cut it allegedly saturates.  A checker that
    verifies (a) the flow is feasible and conserved, (b) its value equals
    [cert_value], (c) every arc crossing the cut source-to-sink is
    saturated and no crossing arc carries flow sink-to-source, has — by
    max-flow/min-cut LP duality — proved the cut minimal without trusting
    this module. *)
type certificate = {
  cert_nodes : int;
  cert_source : int;
  cert_sink : int;
  cert_value : float;  (** The claimed max-flow = min-cut value. *)
  cert_source_side : bool array;  (** Copy of the cut's [source_side]. *)
  cert_arcs : flow_arc array;
      (** Every user-added arc (including infinite ones), in deterministic
          (source node, insertion order) order. *)
}

val certificate : t -> source:int -> sink:int -> cut -> certificate
(** Export the flow assignment left behind by {!min_cut} together with the
    returned cut.  Call after {!min_cut} on the same network; raises
    [Invalid_argument] if the network was never run. *)

val of_certificate : ?forbid:(int * int) list -> certificate -> t
(** Rebuild a fresh, unsolved network from a certificate's arc list: same
    node count, same arcs in the same insertion order, capacities reset to
    the initial [fa_cap].  Arcs whose [(src, dst)] pair appears in [forbid]
    are re-added with infinite capacity, so no cut through them is ever
    minimal.  Running {!min_cut} on the result answers the counterfactual
    "what is the cheapest cut that avoids these arcs?" — the basis of the
    per-bootstrap rationale in [Resbm.Explain].  A counterfactual value of
    [infinity] means the forbidden arcs were forced: no alternative cut
    exists. *)
