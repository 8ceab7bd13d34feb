(** The integer-programming model of Table 2, generated from an LCG.

    One variable [p_k] per phase (the paper writes one per
    (phase, array) pair plus affinity equalities [p_k1 = p_k2]; folding
    them is the same model with the affinity rows eliminated).  Four
    constraint families:

    - {b locality}: for every L edge of every array graph, the balanced
      relation [a p_k = b p_g + c];
    - {b load balance}: [1 <= p_k <= ceil(n_k / H)];
    - {b storage}: for every storage fact of an LCG node
      ({!Locality.Balance.frame}), [delta_P * H * p_k <= Delta_d], or
      [delta_P * H * p_k <= Delta_r / 2];
    - {b affinity}: implicit (single variable per phase).

    Constraints carry both the symbolic form (for reproducing the
    printed Table 2) and concrete coefficients under the LCG's
    environment (for solving).  Both are read off the LCG (the L edges'
    {!Locality.Balance.solution}s and the nodes' storage facts): the
    model evaluates nothing itself. *)

open Symbolic

type locality = {
  array : string;
  k : int;  (** phase index *)
  g : int;
  a : Expr.t;
  b : Expr.t;
  c : Expr.t;  (** a p_k = b p_g + c *)
  ai : int;
  bi : int;
  ci : int;
}

type bound = { k : int; hi : int; hi_expr : Expr.t }

type storage = {
  array : string;
  k : int;
  kind : [ `Shifted | `Reverse ];
  coeff : int;  (** delta_P * H *)
  coeff_expr : Expr.t;
  limit : int;
  limit_expr : Expr.t;  (** Delta_d, or Delta_r / 2 *)
}

type t = {
  lcg : Locality.Lcg.t;
  n_phases : int;
  locality : locality list;
  bounds : bound list;
  storage : storage list;
}

val of_lcg : Locality.Lcg.t -> t

val phase_name : t -> int -> string

val pp_storage : t -> Format.formatter -> storage -> unit
(** One storage row as {!pp} prints it, without indent or newline. *)

val pp : Format.formatter -> t -> unit
(** Renders the model in the layout of Table 2. *)
