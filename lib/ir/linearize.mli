(** Column-major (Fortran) array linearization.

    Multi-dimensional arrays are flattened to one dimension before
    descriptor construction, as the paper assumes (Sec. 2).  For an
    array with extents [d1; d2; ...] and zero-based subscripts
    [i1; i2; ...], the flat address is [i1 + d1*(i2 + d2*(i3 + ...))]. *)

open Symbolic

val address : dims:Expr.t list -> Expr.t list -> Expr.t
(** @raise Invalid_argument on rank mismatch. *)

val size : dims:Expr.t list -> Expr.t
(** Total element count. *)

(** Why a size does not evaluate. *)
type size_failure =
  | Unbound of string  (** a parameter without a binding *)
  | Non_integral of string  (** a fractional value *)
  | Overflow  (** symbolic arithmetic overflowed *)

val array_size :
  Env.t -> Types.program -> string -> (int, size_failure) result
(** The element count of a declared array under an environment, or why
    it does not evaluate.  The one size evaluator: callers choose their
    own fallback.
    @raise Not_found when the array is not declared. *)
