(** Hash-consed symbolic expressions in canonical sum-of-monomials form.

    The expression class covers everything the paper's descriptors need:
    polynomials over parameters and loop indices with rational
    coefficients and [2^e] factors ([e] itself an expression), e.g.
    [2*P*Q], [P * 2^(-L)], [J * 2^(L-1)], [(P-2) * 2^(-L) + 1].  Exact
    and floor/ceil division are supported; divisions that cannot be
    reduced are kept as opaque atoms so normalization never loses
    information.

    Normal form: a sorted list of (monomial, rational coefficient)
    pairs; a monomial is a sorted list of (atom, integer exponent)
    pairs; all [2^e] factors of a monomial are fused into a single
    [Pow2] atom whose exponent has no constant term (the constant is
    folded into the coefficient).

    Values are {e interned}: within one intern generation, structurally
    equal expressions are physically equal, so [equal] is O(1) and every
    value carries a stable structural [digest] suitable for cache keys.
    [Probe] supplies the randomized fallback for semantic equalities the
    rewrite rules cannot see. *)

type t
(** Abstract; construct via the functions below.  Every value carries a
    unique id and a precomputed structural hash. *)

(** {1 Identity} *)

val id : t -> int
(** Unique per interned value across the process, never reused (even
    across {!intern_reset} or between domains).  Ids depend on
    construction history; never persist them - use {!digest} for stable
    keys. *)

val digest : t -> int
(** Precomputed structural hash: deterministic across processes and
    intern generations (depends only on the term, not on id order). *)

val equal : t -> t -> bool
(** Physical equality, with a hash-gated structural fallback that only
    fires for duplicates across intern generations or domains.  Agrees
    with {!structural_equal} on all inputs. *)

val compare : t -> t -> int
(** Total order identical to {!structural_compare} (the historical
    structural ordering), short-circuiting on physical equality. *)

val structural_equal : t -> t -> bool
val structural_compare : t -> t -> int
(** Pure structural reference implementations (no interning shortcuts);
    the qcheck suite pins [equal]/[compare] against these. *)

(** {1 Intern state} *)

val intern_size : unit -> int
(** Number of live interned expressions in the calling domain's
    current generation.  Each domain interns into its own table; a
    fresh domain starts a fresh generation. *)

val intern_reset : unit -> unit
(** Drop the calling domain's intern table (a profiling driver calls
    this between runs so intern state stays bounded and history-free).
    The id counter is {e not} reset: expressions created before the
    reset remain valid and compare correctly against post-reset values,
    they just lose sharing. *)

(** {1 Constructors} *)

val zero : t
val one : t
val int : int -> t
val q : Qnum.t -> t
val var : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val scale : Qnum.t -> t -> t
val prod : t list -> t

val pow2 : t -> t
(** [pow2 e] is [2^e]. *)

val div : t -> t -> t
(** Exact division.  Always reduces when the divisor is a single
    monomial (negative exponents are allowed); otherwise attempts
    term-wise reduction and falls back to an opaque-division atom. *)

val floor_div : t -> t -> t
val ceil_div : t -> t -> t

(** {1 Inspection} *)

val is_zero : t -> bool

val to_q : t -> Qnum.t option
(** [Some c] iff the expression is the constant [c]. *)

val to_int : t -> int option

val const_part : t -> Qnum.t
(** Coefficient of the empty monomial. *)

val vars : t -> string list
(** All variables occurring anywhere (sorted, deduplicated). *)

val mem_var : string -> t -> bool

val linear_in : string -> t -> (t * t) option
(** [linear_in v e = Some (a, b)] when [e = a*v + b] with [v] occurring
    nowhere in [a] or [b]; [None] if [e] is non-linear in [v]. *)

(** {1 Transformation} *)

val subst : string -> t -> t -> t
(** [subst v by e] replaces every occurrence of variable [v] in [e]
    (including inside [Pow2] exponents and division atoms) with [by],
    then renormalizes. *)

val subst_env : (string * t) list -> t -> t

(** {1 Evaluation} *)

exception Non_integral of string
(** Raised when an integer is required (a [Pow2] exponent or a final
    [eval_int]) but the value is fractional. *)

exception Unbound of string
(** Raised by a compiled closure that evaluates a {!Free} variable,
    carrying its name ([Env.Unbound] is the same exception). *)

(** Where a compiled closure reads a variable. *)
type binding =
  | Slot of int  (** from this index of the row *)
  | Fixed of int  (** this value, whatever the row *)
  | Free  (** nowhere: evaluating it raises {!Unbound} *)

val compile : (string -> binding) -> t -> int array -> Qnum.t
(** [compile slot e] resolves each variable of [e] through [slot] once
    and returns [e]'s evaluator on a row.  It runs in native ints while
    the value stays integral (checked with {!Qnum.mul_int} and
    {!Qnum.add_int}), and falls back to exact rationals for the
    evaluation of any term that needs one.  Its value and every
    exception it raises are {!eval}'s: the same order of operations,
    [Qnum.Overflow] at the same operation, {!Unbound} only when the
    variable is evaluated.  The closure keeps no per-call state, so
    several domains may run it at once. *)

val compile_int : (string -> binding) -> t -> int array -> int
(** {!compile} then {!eval_int}'s integrality check. *)

val eval_exact : (string -> Qnum.t) -> t -> Qnum.t
(** The exact path of {!compile}, applied once, in rationals: the
    reference whose value and exceptions {!eval} and {!compile} keep.
    [lookup] is asked for a variable each time one is evaluated.
    @raise Non_integral if a [Pow2] exponent evaluates to a non-integer.
    Whatever [lookup] raises propagates. *)

val eval : (string -> Qnum.t) -> t -> Qnum.t
(** One evaluation: {!compile}'s native path walked straight off the
    expression, with no closure built, and {!eval_exact} from the start
    when a rational appears (a fractional coefficient or value, a
    negative exponent or [Pow2] exponent, an [Opaque_div]).  Value and
    exceptions are {!eval_exact}'s; [lookup] must be pure, since a
    re-evaluation asks it again. *)

val eval_int : (string -> Qnum.t) -> t -> int
(** {!eval} then an integrality check.
    @raise Non_integral if the result is fractional. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
