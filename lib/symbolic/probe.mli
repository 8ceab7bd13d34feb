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

    Each assumption set's samples are drawn once per probe seed, by its
    compiled {!Assume.sampler}, into a bank of [int] rows; each operand
    is evaluated once per bank into a column of its values on those
    rows.  A predicate is a loop over its operands' columns: the answer
    is the one a loop evaluating the operands row by row would give,
    exceptions included (DESIGN.md section 16.4).  Queries the samples
    decide count in [probe.forall], and those they answer [true] in
    [probe.affirmed]; column lookups are the [probe.column] cache cell.

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

(** {1 Loops for {!Range}}

    Neither counts in [probe.forall]. *)

val ordered : Assume.t -> (int -> bool) -> Expr.t -> Expr.t -> bool
(** [ordered asm ok a b]: [ok (Qnum.compare a b)] on every sample, [b]
    evaluated before [a] on each; [false] if an evaluation error is
    raised, as the predicates answer ({!lt} is [ordered asm (fun c -> c
    < 0)]). *)

val along : Assume.t -> string -> Expr.t -> (int -> int -> (int -> Qnum.t) -> bool) -> bool
(** [along asm v e test]: on each row, [test lo hi at] with [v]'s
    concrete range [lo..hi] on that row (as {!Assume.range_in_env}
    gives it) and [at x] the value of [e] at [v = x], every other
    variable read off the row.  A row where [v] has no range fails.
    Only the range's bounds count in [env.eval_uncached]. *)
