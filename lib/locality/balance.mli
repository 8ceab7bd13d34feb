(** The balanced locality condition (paper, Sec. 4.2, Eqs. 1-3).

    Two phases F_k and F_g keep array X local across their boundary
    when chunks of [p_k] and [p_g] consecutive parallel iterations
    cover the same data sub-region:

      UL(I^k(X,0), p_k) + h^k = UL(I^g(X,0), p_g) + h^g

    subject to the load-balance bounds
    [1 <= p_k <= ceil((u_k+1)/H)] and likewise for [p_g].

    For an ID whose rows all share one representative (congruent rows
    related by storage distances), [UL(I,0,p) + h] is the linear
    function [tau + p*delta_P - 1 + (residual span - gap terms)] of
    [p], so Eq. 1 is a linear diophantine equation solved exactly with
    the extended gcd; Eqs. 2-3 select the [t]-window of its solution
    family. *)

open Symbolic
open Descriptor

type side = {
  id : Id.t;
  primary : Id.row;  (** representative: lowest-offset increasing row *)
  gap : Expr.t;  (** memory gap h of the representative *)
  overlap : bool;
      (** consecutive iterations share elements: the span is
          ghost-inflated, so UL+h uses the ownership boundary instead *)
}

val side : overlap:bool -> Id.t -> side option
(** [overlap] is the ID's symmetry verdict ({!Symmetry.t} [overlap] is
    not [No_overlap]).  [None] when no increasing row exists, rows are not mutually
    congruent, or the gap is undecidable - the caller then treats the
    edge conservatively (C). *)

val ul_plus_h : side -> p:Expr.t -> Expr.t
(** [UL(I,0,p) + h] as a symbolic function of the chunk size. *)

type relation = {
  a : Expr.t;  (** coefficient of [p_k] *)
  b : Expr.t;  (** coefficient of [p_g] *)
  c : Expr.t;  (** constant: the equation is [a*p_k = b*p_g + c] *)
}

val relation :
  overlap_k:bool -> overlap_g:bool -> Id.t -> Id.t -> relation option
(** The balanced equation between two phases' IDs of the same array. *)

type solution = {
  pk : int;
  pg : int;  (** smallest feasible pair *)
  count : int;  (** number of integer solutions within the bounds *)
  ai : int;
  bi : int;
  ci : int;
      (** the model's row [ai p_k = bi p_g + ci] under the environment;
          [ci] reads 0 when [|ci| < max ai bi]: a misalignment below one
          stride of the coarser side stays inside a block *)
}

val solve :
  env:Env.t -> h:int -> nk:int -> ng:int -> relation -> solution option
(** Concrete solve: [nk], [ng] are the parallel trip counts; bounds are
    [1 .. ceil(n/H)].  [None] when no integer solution fits. *)

type storage = {
  kind : [ `Shifted | `Reverse ];
  distance : Expr.t;  (** [Delta_d], or [Delta_r] *)
  dist : int;
  limit_expr : Expr.t;  (** the row's limit: [Delta_d], or [Delta_r / 2] *)
  limit : int;  (** [Delta_d], or [floor (Delta_r / 2)] *)
  stride_expr : Expr.t;  (** [delta_P] of the representative *)
  stride : int;  (** its value, [> 0] *)
}
(** A storage distance beyond one iteration's reach: the Table 2 row
    [delta_P * H * p <= limit], and a period or mirror of length [dist]. *)

val frame : Env.t -> Id.t -> Symmetry.t -> (int * int) option * storage list
(** [(anchor, facts)] of a node under the environment.  [anchor] is
    [(tau, delta_P)] of the representative ({!side}); [None] when there
    is none, [delta_P <= 0], or either does not evaluate.  [facts]: each
    distance (shifted, then reverse) that evaluates beyond the reach
    [span + 2 delta_P] (a span that does not evaluate reads 0); one
    within it is a stencil frame, not a distant copy.  Both kinds
    compare the distance itself with the reach. *)

val pp_relation : Format.formatter -> relation -> unit
