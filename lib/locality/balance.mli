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

val side : ?overlap:bool -> Id.t -> side option
(** [None] when no increasing row exists, rows are not mutually
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
  ?overlap_k:bool -> ?overlap_g:bool -> Id.t -> Id.t -> relation option
(** The balanced equation between two phases' IDs of the same array. *)

val snap : a:int -> b:int -> int -> int
(** The sub-stride residue snap: [snap ~a ~b c] is 0 when [0 < |c| <
    max a b] - a misalignment below one stride of the coarser side
    stays inside a block for any chunking - and [c] otherwise.  Applied
    to a relation's evaluated constant before it is solved or written
    as a model row. *)

val reach : Env.t -> side -> (int * int) option
(** [Some (delta_P, span + 2 delta_P)]: the representative's parallel
    stride under the environment and one iteration's reach.  A storage
    distance within the reach is a stencil frame, not a distant copy,
    so it constrains nothing.  [None] when [delta_P <= 0]; the reach
    reads 0 when the span does not evaluate.  Raises what {!Env.eval}
    raises when [delta_P] does not evaluate: each caller keeps its own
    policy for that. *)

type solution = {
  pk : int;
  pg : int;  (** smallest feasible pair *)
  count : int;  (** number of integer solutions within the bounds *)
}

val solve :
  env:Env.t -> h:int -> nk:int -> ng:int -> relation -> solution option
(** Concrete solve: [nk], [ng] are the parallel trip counts; bounds are
    [1 .. ceil(n/H)].  [None] when no integer solution fits. *)

val balanced :
  env:Env.t -> h:int -> nk:int -> ng:int -> Id.t -> Id.t -> solution option
(** End-to-end: sides, relation, solve. *)

val pp_relation : Format.formatter -> relation -> unit
