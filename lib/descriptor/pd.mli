(** Phase Descriptors (paper, Sec. 2).

    A PD aggregates the ARDs of all references to one array inside one
    phase.  Rows that share a stride vector live in the same {e group}
    (the paper's matrix A with shared delta vector); references whose
    stride vectors differ remain in separate groups, so a PD is a union
    of groups.  Signs (the paper's Lambda matrix) are kept per row: a
    group may contain an increasing and a decreasing row, which is what
    reverse storage symmetry later detects. *)

open Symbolic
open Ir

type dim = {
  stride : Expr.t;  (** absolute stride, shared by all rows *)
  vars : string list;  (** loop indices folded into this dim *)
  uniform : bool;
}

type row = {
  alphas : Expr.t list;  (** iteration counts, aligned with group dims *)
  signs : int list;  (** per-dim direction for this row *)
  offset : Expr.t;  (** tau *)
  mix : Access_mix.t;
  phis : Expr.t list;  (** source subscripts (provenance for Range) *)
}

type group = {
  dims : dim list;  (** outermost first *)
  par : int option;  (** index of the parallel dim within [dims] *)
  rows : row list;
}

type t = {
  array : string;
  ctx : Phase.t;
  groups : group list;
  exact : bool;  (** false if any reference degraded to whole-array *)
}

val of_phase : Ard.phase -> array:string -> t
(** Raw PD: one row per descriptor of [array] among the phase's, rows
    with identical stride vectors grouped.  Zero-stride
    (loop-invariant) dims are dropped.  Builds no descriptor. *)

val par_stride : group -> Expr.t option
(** Stride of the parallel dim ([None] when the region is invariant
    across parallel iterations). *)

val par_sign : row -> group -> int
(** Direction of this row along the parallel loop (+1 when invariant). *)

val seq_dims : group -> (int * dim) list
(** Non-parallel dims with their positions. *)

val row_span_seq : group -> row -> Expr.t
(** Total sequential span [sum (alpha_j - 1) * delta_j] of one row:
    the per-iteration region of the row stretches from its offset to
    offset + span. *)

val pd_mix : t -> Access_mix.t

val finest_seq : Assume.t -> group -> (int * dim) option
(** Sequential dim with the (probed) smallest stride. *)

val pp : Format.formatter -> t -> unit
