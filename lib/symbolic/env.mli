(** Concrete integer assignments for symbolic variables. *)

type t

exception Unbound of string
(** Raised by {!find} (and everything built on it) for an unbound
    variable, carrying the variable's name.  The same exception as
    {!Expr.Unbound}. *)

val empty : t
val of_list : (string * int) list -> t
val add : string -> int -> t -> t
val find : t -> string -> int
(** @raise Unbound when the variable has no binding. *)

val bindings : t -> (string * int) list

val lookup : t -> string -> Qnum.t
(** Shape expected by {!Expr.eval}. *)

val eval : t -> Expr.t -> int
(** [eval env e] = {!Expr.eval_int} under [env].  Nothing is cached:
    each call evaluates, and counts once in [env.eval_uncached]. *)

val eval_q : t -> Expr.t -> Qnum.t
(** {!Expr.eval} under [env], counted as {!eval} is. *)

(** {1 Rows}

    A row is an [int array] whose slot [j] binds [names.(j)]; the last
    binding of a repeated name wins, as in {!of_list}.  {!Probe}'s
    sample bank stores its samples as rows. *)

val slot : string array -> string -> Expr.binding
(** [v]'s slot in a row of [names]: [Slot j] or [Free]. *)

val compile : string array -> Expr.t -> int array -> Qnum.t
(** [compile names e] is {!Expr.compile} on rows of [names]: each call
    evaluates [e] as {!eval_q} would on the row's bindings,
    and counts once in [env.eval_uncached]. *)

val compile_int : string array -> Expr.t -> int array -> int
(** {!compile} with {!eval}'s integrality check. *)

val pp : Format.formatter -> t -> unit
