(** Iteration Descriptors (paper, Sec. 3).

    The ID of array X at parallel iteration [i] of a phase describes the
    sub-region that iteration touches: the PD with the parallel
    dimension projected out, the offset turned into the function
    [tau_B(i) = tau + i * sign * delta_P], and the sequential span
    giving the extent.  Rows keep their parallel direction so reverse
    storage symmetry remains visible. *)

open Symbolic

type row = {
  seq_alphas : Expr.t list;  (** aligned with [seq_dims] of the group *)
  offset0 : Expr.t;  (** region start at iteration 0 *)
  par_stride : Expr.t;  (** zero when invariant across iterations *)
  par_sign : int;
  span_seq : Expr.t;  (** region extent: covers [tau_B(i) .. tau_B(i)+span] *)
  mix : Access_mix.t;
}

type group = { seq_dims : Pd.dim list; rows : row list }

type t = {
  array : string;
  ctx : Ir.Phase.t;
  groups : group list;
  exact : bool;
}

val key : t -> Artifact.Key.t
(** Structural artifact key over the projected content (array, groups,
    exactness), without the context - pair with [Ir.Phase.key] when a
    cached value also depends on the owning phase. *)

val of_pd : Pd.t -> t

val upper_at : row -> i:Expr.t -> Expr.t
(** Farthest address of the row's sub-region at iteration [i]. *)

val all_rows : t -> row list

val tagged_rows : t -> (group * row) list
(** Every row with its group, in order. *)

val pairs : self:bool -> 'a list -> ('a * 'a) list
(** Every unordered pair of positions, in list order; with [self],
    each element is first paired with itself. *)

val dense : t -> row -> bool
(** The row's region at one iteration is a gap-free interval: its
    extent [span_seq + 1] equals its address count, the product of its
    [seq_alphas], under the ID's assumptions. *)

val par_strides : t -> Expr.t list
(** Distinct parallel strides across rows (zeros excluded). *)

val rectangular : t -> bool
(** All dims uniform: the symbolic span/upper-limit formulas are exact. *)

val pp : Format.formatter -> t -> unit
