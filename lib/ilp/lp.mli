(** Dense exact-rational linear programming (two-phase primal simplex).

    Stands in for the GAMS solver the paper used.  Problems here are
    tiny (Table 2 is ~16 variables), so a dictionary simplex with
    Bland's rule over {!Symbolic.Qnum} is exact and always terminates.

    Problem form: maximize [c.x] subject to row constraints
    [a.x <= / = / >= b] and [x >= 0]. *)

open Symbolic

type cmp = Le | Ge | Eq

type constr = { coeffs : Qnum.t array; cmp : cmp; rhs : Qnum.t }

type problem = {
  n_vars : int;
  objective : Qnum.t array;  (** maximized *)
  constraints : constr list;
}

type outcome =
  | Optimal of { value : Qnum.t; point : Qnum.t array }
  | Unbounded
  | Infeasible

val solve : problem -> outcome

val constr : Qnum.t array -> cmp -> Qnum.t -> constr
