(** Phase context: the analyzed shape of one loop nest.

    Extracts, from a (normalized) phase, the ordered loop list, the
    reference sites with linearized subscripts, and the assumption set
    (parameter domains plus index ranges) under which all symbolic
    reasoning about the phase happens. *)

open Symbolic
open Types

type loop_info = {
  var : string;
  count : Expr.t;  (** trip count [hi+1] of the normalized loop *)
  hi : Expr.t;  (** inclusive upper bound (lower is 0) *)
  parallel : bool;
}

type site = {
  ref_ : array_ref;
  phi : Expr.t;  (** linearized flat subscript *)
  enclosing : string list;  (** enclosing loop vars, outermost first *)
}

type t = {
  prog : program;  (** owning program (array declarations, params) *)
  phase : phase;
  loops : loop_info list;  (** outermost first *)
  par : loop_info option;  (** the parallel loop, if any *)
  sites : site list;  (** textual order *)
  assume : Assume.t;  (** program params + one [Expr_range] per loop *)
}

exception Invalid_phase of string

val analyze : program -> phase -> t
(** Normalizes the nest, checks the at-most-one-parallel-loop phase
    condition, linearizes every reference.
    @raise Invalid_phase when more than one loop is parallel or an
    array is undeclared. *)

val key : t -> Artifact.Key.t
(** {!Ir.Types.phase_context_key} of the analyzed phase - the context's
    identity for caches whose values depend on it.  Deliberately
    excludes sibling phases, so per-phase artifacts survive edits to
    the rest of the program (incremental reuse). *)

val sites_of_array : t -> string -> site list
val loop_index : t -> string -> int
(** Position of a loop var in [loops]. @raise Not_found otherwise. *)

val par_count : t -> Expr.t
(** Trip count of the parallel loop ([1] if the phase has none: the
    whole nest is a single "iteration"). *)
