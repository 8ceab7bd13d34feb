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

type step = {
  stride : Expr.t;
      (** how far [phi] moves when the loop index advances by one: the
          coefficient of the index where [phi] is affine in it, the
          forward difference [phi(v+1) - phi(v)] otherwise *)
  affine : bool;  (** [phi] is affine in the index *)
}

type site = {
  ref_ : array_ref;
  phi : Expr.t;  (** linearized flat subscript *)
  enclosing : string list;  (** enclosing loop vars, outermost first *)
  steps : step list;  (** one per [enclosing] loop, in the same order *)
}

type t = {
  prog : program;  (** owning program (array declarations, params) *)
  phase : phase;
  loops : loop_info list;  (** outermost first *)
  par : loop_info option;  (** the parallel loop, if any *)
  sites : site list;  (** textual order *)
  assume : Assume.t;  (** program params + one [Expr_range] per loop *)
  bad : string list;
      (** the loop vars a concrete walk must enumerate ({!Shape}'s
          partial evaluation), sorted: those in loop bounds, those
          along which some subscript is not affine or has a
          coefficient mentioning a loop var, and a parallel loop whose
          bound mentions a loop var *)
}

exception Invalid_phase of string

val analyze : program -> phase -> t
(** Normalizes the nest, checks the at-most-one-parallel-loop phase
    condition, linearizes every reference and derives its steps and
    the phase's partial-evaluation set: the environment-free facts
    every descriptor and closed-form event shape of the phase reads.
    Memoized per phase in the [phase.analyze] store.
    @raise Invalid_phase when more than one loop is parallel or an
    array is undeclared. *)

val sites_of_array : t -> string -> site list

val step : site -> string -> step option
(** The site's step along an enclosing loop var; [None] when the loop
    does not enclose the site. *)

val loop_index : t -> string -> int
(** Position of a loop var in [loops]. @raise Not_found otherwise. *)

val par_count : t -> Expr.t
(** Trip count of the parallel loop ([1] if the phase has none: the
    whole nest is a single "iteration"). *)
