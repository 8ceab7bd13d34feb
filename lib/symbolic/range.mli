(** Symbolic range analysis by monotone bound substitution.

    To bound an expression over a block of loop indices (e.g. the reach
    of a subscript function over the sequential loops of a nest), each
    index is eliminated innermost-first: the index is replaced by its
    upper or lower bound expression according to the monotonicity of the
    current expression in that index.  Monotonicity is established by
    {!Probe} sampling, and the final symbolic bound is re-validated by
    sampling against the original expression, so an incorrect bound is
    reported as [None] (callers then fall back to conservative
    behaviour) rather than silently used. *)

val maximize : Assume.t -> over:string list -> Expr.t -> Expr.t option
(** [maximize asm ~over e] returns a symbolic upper bound of [e] over
    all assignments of the variables in [over], as an expression in the
    remaining variables.  [over] must be a subset of [Assume.vars asm];
    elimination proceeds in reverse declaration order so that
    substituted bounds only mention earlier variables. *)

val minimize : Assume.t -> over:string list -> Expr.t -> Expr.t option
(** The lower bound, as {!maximize}. *)

val monotonicity :
  Assume.t -> string -> Expr.t -> [ `Inc | `Dec | `Const | `Mixed ]
(** Sampled monotonicity of the expression in one variable, everything
    else drawn from the assumption domain. *)
