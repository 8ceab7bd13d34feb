(** Exact minimization of the parallel-overhead objective (Eq. 7).

    The locality (L-edge) equalities tie the [p_k] of each connected
    component of the constraint graph to a single representative, so
    the feasible set is a union of short arithmetic progressions; the
    objective's D terms contain ceilings, making it non-linear - we
    therefore enumerate the representative exactly rather than relax.
    {!Ilp_solver} remains available for linear objectives and is tested
    against this enumerator. *)

type result = {
  p : int array;  (** chosen chunk per phase, CYCLIC(p_k) *)
  d_cost : float;  (** total load-unbalance cost *)
  c_cost : float;  (** total communication cost *)
  objective : float;
  broken : (string * int * int) list;
      (** L edges (array, k, g) the solver had to violate (treated as
          extra C edges); empty in well-posed instances *)
  budget_exhausted : bool;
      (** true when some component's representative window extended
          past the enumeration budget, so [p] may be sub-optimal; the
          pipeline surfaces this as a [SOLVE-BUDGET] warning and falls
          back to the BLOCK baseline plan *)
}

val solve : Model.t -> Cost.machine -> result
