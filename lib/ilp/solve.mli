(** Exact minimization of the parallel-overhead objective (Eq. 7).

    The locality (L-edge) equalities tie the [p_k] of each connected
    component of the constraint graph to a single representative [t]:
    [p_k = (num_k t + off_k) / den_k].  The feasible [t] are a residue
    class (every [p_k] integral) cut to a window (every [p_k] at least
    1 and within its load-balance bound and storage caps, and [t] in
    [1..t_max]).  The objective's D terms contain floors, so it is not
    linear.  Instead of enumerating the window, {!argmin} minimizes
    each component piecewise; this is the model's only solver.

    {b Pieces.}  A member's cost at chunk [p] is
    [load(p) + K / p] with [K = sum par_n (2 t_startup + 4 w t_word) / H]
    over its frontier terms.  [load] is
    [(max_load(p) - n/H) * work/n] clamped at 0, where, with
    [q = floor(n / (p H))], [max_load(p) = (q+1) p] when
    [p <= n mod (p H)] and [n - q p (H-1)] otherwise.  Since
    [floor(n / (p H)) = floor(floor(n/H) / p)], [q] is constant on the
    blocks [p .. floor(n/H) / q] (about [2 sqrt(n/H)] of them, one
    unbounded block with [q = 0]), and within a block the switch
    [p <= n mod (p H)] holds exactly for
    [p <= floor(n / (1 + q H))].  So [max_load] is affine in [p] on each
    piece (block, switch side).  The clamp never acts: the most loaded
    processor runs at least the average [n/H].  Mapping every member's
    piece starts through its monotone [p_k(t)] cuts the window into
    merged pieces on which every member's load is affine in [t].

    {b Claim.}  On a merged piece with feasible points
    [t_0 < t_0 + l < ... < t_m] (residue step [l]), the cost
    [f(t) = sum_k cost_k(p_k(t))] attains its minimum, and the smallest
    [t] attaining it, at [t_0], at [t_m], or at one of the two feasible
    points either side of the real stationary point of [f].

    {b Proof.}  Extend [f] to real [t] on [[t_0, t_m]] with the piece's
    affine load formulas; it agrees with the cost at the feasible
    points.  Each [K_k / p_k(t)] is convex where [p_k > 0] (second
    derivative [2 K_k den_k num_k^2 / (num_k t + off_k)^3 >= 0]), so
    [f] is affine plus convex, hence convex, and strictly convex when
    some member with [num_k <> 0] has [K_k > 0].  If [f'(t_0) >= 0],
    [f] is non-decreasing and [t_0] is the smallest minimizer.  If
    [f'(t_m) <= 0] then [f' <= 0] throughout; either [f] is affine
    (constant when [f' = 0], so [t_0] is the smallest minimizer, or
    strictly decreasing, so [t_m] is the only one) or it is strictly
    convex with [f' < 0] before [t_m], so [t_m] is the only minimizer.
    Otherwise [f'] changes sign, so [f] is strictly convex with a
    unique stationary point [t*] in [(t_0, t_m)].  A convex function
    restricted to the progression decreases up to the last point
    before [t*] and increases from the first point at or after it, so
    every minimizer is one of those two points.  [argmin] brackets
    [t*] by bisecting the sign of [f'] over the progression indices.

    {b Bit identity.}  The proof is over the reals; the candidates are
    costed in floats exactly as an exhaustive scan of the window costs
    every [t] ({!member_cost} summed over members in phase order),
    visited in ascending [t], and a candidate replaces the incumbent
    only when strictly cheaper.  So the result is the scan's whenever
    float rounding keeps the order of costs that differ in exact
    arithmetic.  [test/test_ilp.ml] checks it against the scan on the
    registry kernels, generated programs and random components. *)

type result = {
  p : int array;  (** chosen chunk per phase, CYCLIC(p_k) *)
  d_cost : float;  (** total load-unbalance cost *)
  c_cost : float;  (** total communication cost *)
  objective : float;
  broken : broken list;  (** rows not met; empty in well-posed instances *)
  budget_exhausted : bool;
      (** true when some component's representative window is wider
          than 200,000.  [p] is still the exact optimum; the pipeline
          surfaces the flag as a [SOLVE-BUDGET] warning and ships the
          BLOCK baseline plan, because the plan stage cannot yet tally
          windows that wide *)
}

and broken =
  | Locality of string * int * int
      (** an L edge (array, k, g) the solve had to violate, priced as
          an extra C edge *)
  | Storage of Model.storage
      (** a storage row no chunk meets ([coeff > limit]): its phase is
          capped at [p = 1] instead, and no L edge is blamed for it *)

val pp_broken : Model.t -> Format.formatter -> broken -> unit
(** The row on one line, led by its reason code: [storage-unmeetable]
    or [locality-violated]. *)

val pp : Model.t -> Format.formatter -> result -> unit
(** The objective line, then one [broken] line per {!pp_broken} row. *)

type affine = { num : int; off : int; den : int }
(** [p = (num t + off) / den], in lowest terms with [den > 0]. *)

val eval_affine : affine -> int -> int option
(** The value at [t], when integral. *)

(** One phase of a component, with what its cost depends on. *)
type member = {
  phase : int;
  expr : affine;  (** its [p] in terms of the representative *)
  bound : int;  (** load-balance bound: [p <= bound] *)
  cap : int;  (** storage cap [p <= cap]: least [max 1 (limit / coeff)] *)
  lead : (int * int) option;
      (** the lead node's [(par_n, work)], priced by
          {!Cost.load_imbalance}; [None] for a phase no array touches *)
  frontier : (int * int) list;
      (** [(par_n, halo)] of each node with a halo on a written array *)
}

type component = { members : member list; t_max : int }
(** The members in ascending phase order; [t] ranges over [1..t_max]. *)

val member_cost : Cost.machine -> member -> int -> float
(** The member's D cost at chunk [p]: load imbalance plus frontier
    traffic. *)

val argmin : Cost.machine -> component -> int option
(** The smallest feasible [t] of least summed {!member_cost}, by the
    piecewise minimization above; [None] when no [t] is feasible.
    Counts each costed [t] in the [solve.candidates] counter. *)

val solve_with :
  argmin:(Cost.machine -> component -> int option) ->
  Model.t ->
  Cost.machine ->
  result
(** The solve with another per-component minimizer (the tests pass the
    exhaustive scan). *)

val solve : Model.t -> Cost.machine -> result
(** [solve_with ~argmin]. *)
