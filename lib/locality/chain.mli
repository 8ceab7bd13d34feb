(** Chain summaries (paper, Sec. 4.3 (a)).

    A chain is a maximal run of L-connected LCG nodes; by construction
    its phases cover a common data sub-region, so one data allocation
    placed before the chain's first phase serves them all.  This module
    materializes that claim: per chain, the concrete region each member
    covers, the common (union) region, the homogenized descriptor when
    the PDs fuse symbolically, and a coverage verdict - every member's
    region must lie within the chain region, and for non-degenerate
    chains the members' regions must agree up to the halo frontier. *)

open Descriptor

type member = {
  name : string;
  phase_idx : int;
  region_size : int;
      (** distinct addresses the phase touches ({!Lcg.footprint}); 0
          when its region is not rectangular *)
}

type summary = {
  array : string;
  members : member list;
  chain_size : int;  (** distinct addresses over the whole chain *)
  max_member : int;
  homogenized : Pd.t option;
      (** pairwise-fused descriptor when every fuse step applied *)
  covers_alike : bool;
      (** every member covers at least 80% of the chain region - the
          "same data sub-region" property modulo boundary effects *)
}

val summaries : Lcg.t -> summary list
val pp : Format.formatter -> summary -> unit
