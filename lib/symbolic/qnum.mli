(** Exact rational arithmetic on native integers.

    All descriptor algebra in this library uses exact rationals: strides
    such as [P * 2^(-L)] produce rational coefficients during
    normalization even though every final quantity of interest is an
    integer.  Magnitudes stay far below 2{^62} for every workload in the
    repo; overflow in the numerator/denominator products, and negation
    of [min_int], raise [Overflow] rather than wrapping silently. *)

type t = private { num : int; den : int }
(** Invariant: [den > 0], [gcd num den = 1] (and [den = 1] when
    [num = 0]). *)

exception Overflow
exception Division_by_zero

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den = 0].
    @raise Overflow if [den < 0] and [num] or [den] is [min_int]. *)

val mul_int : int -> int -> int
val add_int : int -> int -> int
(** The checked native products and sums every operation here is built
    on: the exact [a * b] and [a + b], or [Overflow].  On integers,
    {!mul} and {!add} raise exactly when these do. *)

val of_int : int -> t
val zero : t
val one : t
val minus_one : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
(** @raise Overflow on [min_int]. *)

val abs : t -> t
(** @raise Overflow on [min_int]. *)

val inv : t -> t

val equal : t -> t -> bool

(** Total order.  Comparison cross-reduces by gcd before multiplying so
    rationals near [max_int] compare exactly; if the reduced cross
    products would still overflow it falls back to sign and then
    floating-point comparison instead of raising [Overflow]. *)
val compare : t -> t -> int
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val to_int : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val floor : t -> int
(** Largest integer [<=] the value. *)

val ceil : t -> int
(** Smallest integer [>=] the value. *)

val min : t -> t -> t
val max : t -> t -> t

val pow2 : int -> t
(** [pow2 k] is [2^k] for any integer [k], including negative [k]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
