(** SCALEMGR — bootstrapping-guided rescaling-region identification
    (Algorithm 3).

    Given a sequence of regions [src, dst] delimited by tentative
    bootstrapping points, SCALEMGR decides which regions rescale.  Scale
    evolution is tracked in bits: a region with ciphertext-ciphertext
    multiplications doubles the live-in scale; one with only
    ciphertext-plaintext multiplications adds the waterline.  A region
    rescales as soon as its post-multiplication scale reaches [q * q_w]
    (the paper's early-rescaling preference: of two placements with equal
    effect on the live-out scale of [dst], the earlier one wins because it
    lets more operations run at a lower level), possibly several times if
    the scale accumulated across multiple regions.

    [lbts] counts the levels consumed in [(src, dst]] — the rescales of
    [src] itself happen before the bootstrap and spend the previous
    segment's budget (Section 4.4). *)

type region_info = {
  entry_scale : int;  (** Live-in scale (bits) of the region. *)
  peak_scale : int;  (** Scale right after the region's multiplications. *)
  out_scale : int;  (** Live-out scale after this region's rescales. *)
  rescales : int;  (** Number of rescale levels consumed in the region. *)
}

type seq_plan = {
  infos : region_info array;  (** Indexed by [r - src] for [r] in [src, dst]. *)
  rescaling : int list;  (** Region indices with at least one rescale. *)
  lbts : int;  (** Levels consumed in [(src, dst]]. *)
}

val step : Region.t -> Ckks.Params.t -> region:int -> entry_scale:int -> region_info
(** One region of a sequence: its peak scale and early rescales from the
    live-in scale [entry_scale].  {!plan} folds it over [[src, dst]];
    {!Btsmgr} extends a sequence by one region per candidate segment. *)

val next_entry_scale : Ckks.Params.t -> bts:bool -> region_info -> int
(** Live-in scale of the region after one whose {!step} gave the info:
    [q] when the region bootstraps (Table 1: bootstrapping re-encodes at
    the scale factor), its live-out scale otherwise. *)

val plan :
  Region.t ->
  Ckks.Params.t ->
  src:int ->
  dst:int ->
  src_entry_scale:int ->
  bts_at_src:bool ->
  seq_plan
(** [bts_at_src] resets the live-out scale of [src] to [q]
    ({!next_entry_scale}).  Counts one [scalemgr.plans]. *)
