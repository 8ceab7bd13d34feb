(** Concrete integer assignments for symbolic variables. *)

type t

exception Unbound of string
(** Raised by {!find} (and everything built on it) for an unbound
    variable, carrying the variable's name. *)

val empty : t
val of_list : (string * int) list -> t
val add : string -> int -> t -> t
val find : t -> string -> int
(** @raise Unbound when the variable has no binding. *)

val bindings : t -> (string * int) list

val id : t -> int
(** Unique identity of this environment value, assigned at creation.
    Caches keyed on an environment use this id (never the bindings), so
    two environments with equal bindings still have distinct cache
    lines - the memo-coherence argument of DESIGN.md section 12. *)

val ephemeral : t -> t
(** A copy (fresh id) whose evaluations bypass the global artifact
    store, as do those of every environment derived from it via {!add}.
    Mark environments that die quickly and in bulk - probe samples, the
    enumerator's per-iteration bindings - so they do not churn the
    store or drag short-lived cache entries into the major heap. *)

val lookup : t -> string -> Qnum.t
(** Shape expected by {!Expr.eval}. *)

val eval : t -> Expr.t -> int
(** [eval env e] = {!Expr.eval_int} under [env]. *)

val eval_q : t -> Expr.t -> Qnum.t

val eval_with : (string -> int) -> Expr.t -> Qnum.t
(** Evaluate against a bare lookup (a {!Probe} sample row) as an
    ephemeral environment would: no store, and counted in
    [env.eval_uncached].  The lookup raises {!Unbound} itself. *)

val pp : Format.formatter -> t -> unit
