(** Randomized decision procedures over the descriptor expression class.

    Canonical-form normalization in {!Expr} proves most identities the
    analysis needs; the residue (identities involving [Floor_div],
    [Ceil_div] or [Opaque_div] atoms, and inequalities) is decided by
    evaluating at sampled assignments drawn from an {!Assume} domain.
    For the polynomial-exponential class this is polynomial identity
    testing: agreement at enough random points over large ranges makes a
    false positive vanishingly unlikely.  Every client treats a negative
    answer conservatively (a missed simplification or a C label, never
    an unsound L label), so probing cannot compromise soundness of the
    locality claims - only precision.

    All functions answer [false] (or [None]) if evaluation fails at any
    sample (unbound variable, fractional [Pow2] exponent). *)

val samples : int
(** Number of sampled assignments per query: 64. *)

val with_seed : int -> (unit -> 'a) -> 'a
(** Run [f] with the calling domain's probe stream seeded by [seed].
    Entry and exit call {!Artifact.clear_all}, so no cached answer
    derived under one probe seed survives into a run under another.  A
    fresh domain starts from the default seed. *)

val sample : Assume.t -> int -> Env.t
(** [sample asm i]: the [i]-th assignment of [asm]'s sample stream, as
    an ephemeral environment.  The stream is the one a fork of the
    probe's base state would draw, so it depends only on the seed
    policy and [asm], never on how many probes ran before; it is drawn
    once per seed and assumption set and shared by every query.  A
    draw that raised re-raises at its index.  Sampling loops take
    [i] = 0, 1, ... and stop at the first exception. *)

val equal : Assume.t -> Expr.t -> Expr.t -> bool
val is_zero : Assume.t -> Expr.t -> bool

val sign : Assume.t -> Expr.t -> int option
(** [Some s] when the expression has the same sign [s] (-1, 0, +1) at
    every sample; [None] when the sign varies. *)

val nonneg : Assume.t -> Expr.t -> bool
val le : Assume.t -> Expr.t -> Expr.t -> bool
val lt : Assume.t -> Expr.t -> Expr.t -> bool

val integral : Assume.t -> Expr.t -> bool
(** Whether the expression is integer-valued on every sample. *)

val divides : Assume.t -> Expr.t -> Expr.t -> bool
(** [divides asm d e]: is [e / d] an integer everywhere (and [d] never
    zero)? *)

val constant_in : Assume.t -> string -> Expr.t -> bool
(** Whether the value is independent of variable [v]: evaluates the
    expression at multiple values of [v] with everything else fixed. *)

(** {1 Row loops}

    The loops behind the predicates, for {!Range}: neither counts in
    [probe.forall].  Each builds its per-row test once, then runs it on
    the first [samples] rows of the assumption set's bank, answering
    [false] if the test fails on some row or an evaluation error is
    raised, as the predicates do. *)

val rows : Assume.t -> (string array -> int array -> bool) -> bool
(** [rows asm test]: [test names] is the per-row test, where a row's
    slot [j] binds [names.(j)] (evaluate with {!Env.compile}). *)

val along : Assume.t -> string -> Expr.t -> (int -> int -> (int -> Qnum.t) -> bool) -> bool
(** [along asm v e test]: on each row, [test lo hi at] with [v]'s
    concrete range [lo..hi] on that row (as {!Assume.range_in_env}
    gives it) and [at x] the value of [e] at [v = x], every other
    variable read off the row.  A row where [v] has no range fails.
    Only the range's bounds count in [env.eval_uncached]. *)
