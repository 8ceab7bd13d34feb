(** Branch-and-bound integer programming on top of {!Lp}.

    Maximizes the (rational) objective over integer points.  Problems
    in this repo have a handful of small-bounded variables, so plain
    most-fractional branching with LP bounds is instantaneous and
    exact. *)

open Symbolic

type outcome =
  | Optimal of { value : Qnum.t; point : int array }
  | Infeasible
  | Unbounded

val solve_budgeted : ?max_nodes:int -> Lp.problem -> outcome * bool
(** All variables are required integer (and >= 0, inherited from
    {!Lp}).  [max_nodes] (default 100_000) guards pathological
    instances: once the budget is spent the search stops expanding and
    returns the incumbent found so far as [Optimal] (or [Infeasible]
    when none), never an exception.  The boolean is true exactly when
    the budget was exhausted, i.e. the outcome may be sub-optimal; the
    fuzz battery's ILP-vs-chain check skips such instances. *)

val solve : ?max_nodes:int -> Lp.problem -> outcome
(** [solve_budgeted] without the budget flag, for callers that only
    need the (possibly incumbent) outcome. *)
