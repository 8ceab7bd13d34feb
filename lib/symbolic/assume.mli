(** Variable-domain assumptions.

    Describes, in declaration order, the domain from which each symbolic
    variable draws its values.  Later entries may have bounds that are
    expressions over earlier variables (loop indices with non-constant
    limits, such as [0 <= J <= P*2^(-L) - 1] in the TFFT2 nest).  The
    order is the sampling order used by {!Probe}. *)

type domain =
  | Int_range of int * int
      (** Free parameter drawn uniformly from a concrete interval. *)
  | Pow2_of of string
      (** The value is [2^v] for the (already declared) variable [v];
          models the paper's [P = 2^p] input constraints. *)
  | Expr_range of Expr.t * Expr.t
      (** Loop index: inclusive bounds, expressions over earlier vars. *)

type t

val empty : t
val add : t -> string -> domain -> t
val of_list : (string * domain) list -> t
val to_list : t -> (string * domain) list
val vars : t -> string list
val domain_of : t -> string -> domain option

val key : t -> Artifact.Key.t
(** Stable {!Artifact} cache key covering the whole declaration list
    (order-sensitive, like sampling), built once with the set. *)

val set_domain : t -> string -> domain -> t
(** Replace a variable's domain in place (preserving order); appends
    when absent. *)

val sampler : t -> Random.State.t -> int array
(** [sampler t] compiles every [Expr_range] bound and [Pow2_of] slot of
    [t] once; each application draws one complete assignment
    consistent with every domain, in declaration order, as a row whose
    slot [k] is the [k]-th declaration's value (the names are {!vars}).
    Empty [Expr_range] intervals (hi < lo) clamp to the lower bound,
    which matches a zero-trip loop's index staying at its initial
    value.  An [Expr_range]'s upper bound is evaluated before its lower
    bound; a bound that does not evaluate raises what {!Env.eval}
    raises, and each bound evaluation counts in [env.eval_uncached]. *)

val sample : ?state:Random.State.t -> t -> Env.t
(** One draw of {!sampler}, as an ephemeral environment (the last
    declaration of a repeated name wins). *)

val range_in_env : t -> Env.t -> string -> (int * int) option
(** Concrete inclusive range of one variable once every earlier variable
    is fixed by [env]. *)

val pp : Format.formatter -> t -> unit
