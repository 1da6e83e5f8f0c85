(** The pass verifier: every hard ReSBM invariant composed into one check.

    [run] re-derives, over a whole DFG, the invariants that every pass of
    the pipeline must preserve, and reports violations as {!Diag}
    diagnostics with stable rule ids:

    - ["wellformed"] — {!Fhe_ir.Dfg.validate} structural well-formedness
      (argument ranges, use lists, arities, ct/pt positions, mandatory
      relinearisation, acyclicity);
    - ["topo"] — topological-order consistency: every live node appears
      exactly once in {!Fhe_ir.Dfg.topo_order} and after its arguments;
    - ["scale"] — the strict Table 1 scale/level rules
      ({!Fhe_ir.Scale_check}).  They also prove every live ciphertext
      fits its level's modulus capacity: capacity can only break at an
      input, a multiplication or a modswitch, which they check, or at a
      bootstrap below level 0, which ["bootstrap-target"] refutes;
    - ["waterline"] — warning when a ciphertext scale drops below the
      waterline [q_w] (EVA's lower bound on usable precision);
    - ["bootstrap-target"] — every bootstrap target is within
      [\[1, l_max\]];
    - ["region-cover"], ["region-monotone"], ["region-mul-anchor"],
      ["region-smo-boundary"] — region invariants (only when [?regions]
      is given, see below).

    Scale-dependent rules only run when the well-formedness pass found no
    errors: strict propagation over a malformed graph is meaningless (and
    out-of-range arguments would fault). *)

type regions = {
  region_of : int array;  (** Region index per original node id. *)
  count : int;  (** Number of regions. *)
}
(** A structural view of {!Resbm.Region.t} (re-declared here so the
    analysis library does not depend on the planner).  Nodes with ids
    beyond [region_of] — e.g. management nodes inserted by a later pass —
    are skipped by the region rules. *)

val run :
  ?regions:regions -> ?scale:bool -> Ckks.Params.t -> Fhe_ir.Dfg.t -> Diag.t list
(** Verify [g], returning all findings sorted most severe first ([[]]
    means every invariant holds).

    [scale] (default [true]) controls the Table 1 legality rules
    (["scale"], ["waterline"]); pass [false] for
    pre-management graphs, which are legal only after rescales and
    bootstraps have been planned in.  Structural rules and
    ["bootstrap-target"] always run.

    [regions] enables the region invariants of Section 4.1 against a
    {!Resbm.Region.build} partition: every node is covered by exactly the
    region recorded for it, edges never go backwards in region order,
    multiplications only consume operands from strictly earlier regions
    (regions are one multiplicative level), and — the RMR property — the
    pre-plan graph carries no SMO or bootstrap nodes at all, since scale
    management operations are introduced only by the plan, as one shared
    group per region boundary.

    Every rule is timed as an [Obs] span named [verify.<rule>] on the
    ambient profile. *)
