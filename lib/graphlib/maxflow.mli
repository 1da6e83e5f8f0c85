(** Maximum flow / minimum s-t cut with real-valued capacities (Dinic).

    This is the min-cut engine behind the paper's SMOPLC (Algorithm 4) and
    BTSPLC (Algorithm 5).  Capacities are floats; [infinity] is a legal
    capacity and is used both for super-source/super-sink arcs and for the
    reverse arcs that make the source side of the cut closed under
    predecessors (so every source-to-sink path crosses the cut exactly
    once — the property SMO/bootstrap insertion relies on).

    {b Layout.}  The first solve lays the residual graph out in
    compressed-sparse-row form: node [u]'s arcs are one contiguous range
    of flat arrays (head, paired-arc index, residual capacity in a
    [float array]).  A user arc contributes its forward arc to its tail's
    range and a zero-capacity residual companion to its head's, and each
    node's arcs sit in {e insertion order}: the order [add_edge] touched
    the node.  That order is part of the contract — it steers the level
    BFS and the current-arc search, hence which of several minimum cuts
    is returned and the flow a certificate reports — so two networks
    built by the same [add_edge] sequence solve identically.

    {b Re-solving.}  A network's topology is fixed by its first solve,
    but its capacities are not: {!set_capacity} changes one arc's
    capacity, and every {!max_flow} / {!min_cut} starts from zero flow on
    the current capacities.  A caller whose networks share one topology
    (SMOPLC solves one region shape at several levels) builds it once
    and only refills the capacities; each solve gives bit for bit what a
    fresh network with the same arcs and capacities gives. *)

type t

val create : int -> t
(** [create n] is an empty flow network over nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:float -> unit
(** Add a directed arc in amortised O(1); arcs are numbered from 0 in
    insertion order.  The CSR layout is built once by the first solve;
    adding an arc after it, or with a negative capacity, raises
    [Invalid_argument]. *)

val set_capacity : t -> int -> float -> unit
(** [set_capacity net e cap] sets the capacity of arc [e] (its insertion
    index) for the next solve, which starts from zero flow.  Allowed
    before and after a solve; a certificate needs a solve after it.
    @raise Invalid_argument on an unknown arc or a negative capacity. *)

type stats = {
  nodes : int;
  arcs : int;  (** Arc records, i.e. 2 per [add_edge] (forward + residual). *)
  bfs_phases : int;  (** Level-graph constructions run by the last solve. *)
  aug_paths : int;  (** Augmenting paths pushed by the last solve. *)
}

val stats : t -> stats
(** Counters of the work done by the last solve.  [bfs_phases] and
    [aug_paths] are 0 until [max_flow] runs.  Every solve also reports
    them to the ambient {!Obs} profile under ["maxflow.*"]. *)

val max_flow : t -> source:int -> sink:int -> float
(** Run Dinic's algorithm from zero flow on the current capacities and
    return the max-flow value.  The level graph is built by a BFS over an
    int-array queue; augmenting paths are found by an iterative
    current-arc search. *)

type cut = {
  value : float;  (** Total capacity crossing the cut. *)
  source_side : bool array;  (** [source_side.(v)] iff [v] is on the source side. *)
  edges : (int * int) list;  (** Saturated arcs from source side to sink side. *)
}

val min_cut : t -> source:int -> sink:int -> cut
(** Max-flow followed by a residual-graph reachability pass.  Only arcs
    with a finite capacity are reported in [edges]. *)

(** One user arc of the network with its final flow assignment.  [fa_cap]
    is the capacity the solve ran with ([infinity] is legal); [fa_flow] is the net
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

type snapshot
(** The capacities and residual capacities a solve left behind, copied as
    two flat float arrays: everything {!certificate} reads that a later
    {!set_capacity} and re-solve of the same network overwrites.  A
    caller that re-solves one topology at several capacities keeps a
    snapshot per solve and builds a certificate only for the cuts it
    keeps. *)

val snapshot : t -> snapshot
(** Copy the state the last solve left.  Raises [Invalid_argument] if
    the network was not solved since it was built or since its last
    {!set_capacity}. *)

val certificate : ?snapshot:snapshot -> t -> source:int -> sink:int -> cut -> certificate
(** Export the flow assignment left behind by {!min_cut} together with the
    returned cut.  Without [snapshot], call after {!min_cut} on the same
    network; raises [Invalid_argument] if the network was not solved since
    it was built or since its last {!set_capacity}.  With [snapshot] (of
    the solve that returned the cut), the capacities and flows are read
    from it, so the network may have been refilled and re-solved since:
    the certificate is bit for bit the one an immediate call would have
    exported. *)

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
