(** Inter-phase locality: Theorem 2, producing LCG edge labels.

    [derive] re-computes Table 1 from the theorems themselves:

    - a privatizable endpoint un-couples the phases (label D) - except
      that a {e write-only} F_k with overlapping storage must still
      flush its replicated overlap sub-regions (label C);
    - a write-only F_k with overlapping storage always communicates
      (Theorem 1 fails for it, so its frontier regions are stale);
    - otherwise the label is L exactly when the balanced locality
      condition has a solution within the load-balance bounds and the
      intra-phase locality condition holds in F_k. *)

open Symbolic
open Descriptor

val derive :
  Ir.Liveness.attr ->
  Ir.Liveness.attr ->
  overlap:bool ->
  balanced:bool ->
  Table1.label

type input = {
  attr_k : Ir.Liveness.attr;
  attr_g : Ir.Liveness.attr;
  id_k : Id.t;
  id_g : Id.t;
  sym_k : Symmetry.t;  (** the endpoints' storage symmetry *)
  sym_g : Symmetry.t;
  nk : int;  (** parallel trip count of F_k under the environment *)
  ng : int;
}

type result = {
  label : Table1.label;
  solution : Balance.solution option;  (** when the edge could be L *)
  relation : Balance.relation option;
}

val label : env:Env.t -> h:int -> input -> result
(** Full edge labeling under a concrete parameter environment and
    processor count: storage symmetry, balanced-condition solve,
    intra-phase check of F_k, then {!derive}. *)
