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

val id : t -> int
(** Unique identity of this environment value, assigned at creation
    and never shared by two environments of the process, whichever
    domains built them.  Caches keyed on an environment use this id
    (never the bindings), so two environments with equal bindings still
    have distinct cache lines - the memo-coherence argument of DESIGN.md
    section 12. *)

val ephemeral : t -> t
(** A copy (fresh id) whose evaluations bypass the global artifact
    store, as do those of every environment derived from it via {!add}.
    Mark environments that die quickly and in bulk - probe samples, the
    enumerator's per-iteration bindings - so they do not churn the
    store or drag short-lived cache entries into the major heap. *)

val is_ephemeral : t -> bool

val lookup : t -> string -> Qnum.t
(** Shape expected by {!Expr.eval}. *)

val eval : t -> Expr.t -> int
(** [eval env e] = {!Expr.eval_int} under [env]. *)

val eval_q : t -> Expr.t -> Qnum.t

(** {1 Rows}

    A row is an [int array] whose slot [j] binds [names.(j)]; the last
    binding of a repeated name wins, as in {!of_list}.  {!Probe}'s
    sample bank stores its samples as rows. *)

val slot : string array -> string -> Expr.binding
(** [v]'s slot in a row of [names]: [Slot j] or [Free]. *)

val compile : string array -> Expr.t -> int array -> Qnum.t
(** [compile names e] is {!Expr.compile} on rows of [names]: each call
    evaluates [e] as {!eval_q} would on the row's ephemeral environment,
    and counts once in [env.eval_uncached]. *)

val compile_int : string array -> Expr.t -> int array -> int
(** {!compile} with {!eval}'s integrality check. *)

val pp : Format.formatter -> t -> unit
