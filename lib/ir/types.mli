(** Loop-nest intermediate representation.

    A {e phase} is a DO-loop nest with at most one parallel loop
    (Polaris-style pre-marked), possibly non-perfectly nested, whose
    array subscripts and loop bounds are arbitrary {!Symbolic.Expr}
    expressions of the loop indices and program parameters.  A
    {e program} is an ordered sequence of phases over a set of shared
    arrays, optionally enclosed in an outer (timestep) loop - which is
    what makes the LCG potentially cyclic. *)

open Symbolic

type access = Read | Write

type array_ref = {
  array : string;
  index : Expr.t list;  (** one subscript per declared dimension *)
  access : access;
}

type stmt =
  | Assign of assign
  | Loop of loop

and assign = {
  refs : array_ref list;
      (** reference sites of the statement, in evaluation order
          (reads then the written lhs, typically) *)
  work : int;  (** abstract compute cost per execution, in cycles *)
}

and loop = {
  var : string;
  lo : Expr.t;
  hi : Expr.t;  (** inclusive *)
  step : Expr.t;
  parallel : bool;
  body : stmt list;
}

type array_decl = { name : string; dims : Expr.t list }

type phase = { phase_name : string; nest : loop }

type program = {
  prog_name : string;
  params : Assume.t;
      (** domains of the program parameters and derived loop indices are
          {e not} stored here - only free parameters (e.g. [p], [q] with
          [P = 2^p]); phase loop indices are added by analysis *)
  arrays : array_decl list;
  phases : phase list;
  repeats : bool;
      (** phases run inside an enclosing sequential loop (adds the LCG
          back edge from the last phase to the first) *)
}

val equal_access : access -> access -> bool
val pp_phase : Format.formatter -> phase -> unit
val pp_program : Format.formatter -> program -> unit

val array_decl : program -> string -> array_decl
(** @raise Not_found for undeclared arrays. *)

val stmt_refs : stmt -> array_ref list
(** All reference sites in a statement subtree, textual order. *)

val phase_arrays : phase -> string list
(** Names of arrays referenced in the phase (sorted, unique). *)
