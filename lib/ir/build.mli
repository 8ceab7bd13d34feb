(** Combinator DSL for building IR programs in OCaml (tests, synthetic
    phases, examples); the benchmark kernels are written in the
    surface language instead ([examples/programs/*.dsm]).

    Mirrors the Fortran surface syntax of the paper's examples:
    {[
      let f3 =
        Build.(
          phase "F3"
            (doall "I" ~lo:(int 0) ~hi:(var "Q" - int 1)
               [ do_ "L" ~lo:(int 1) ~hi:(var "p")
                   [ ... ] ]))
    ]} *)

open Symbolic
open Types

val int : int -> Expr.t
val var : string -> Expr.t
val ( + ) : Expr.t -> Expr.t -> Expr.t
val ( - ) : Expr.t -> Expr.t -> Expr.t
val ( * ) : Expr.t -> Expr.t -> Expr.t
val ( / ) : Expr.t -> Expr.t -> Expr.t
(** Exact division. *)

val pow2 : Expr.t -> Expr.t

val doall : string -> lo:Expr.t -> hi:Expr.t -> stmt list -> stmt
val do_ : string -> lo:Expr.t -> hi:Expr.t -> ?step:Expr.t -> stmt list -> stmt

val read : string -> Expr.t list -> array_ref
val write : string -> Expr.t list -> array_ref

val assign : ?work:int -> array_ref list -> stmt
(** One abstract statement; [work] defaults to 1 cycle. *)

val phase : string -> stmt -> phase
(** @raise Invalid_argument if the statement is not a loop. *)

val array : string -> Expr.t list -> array_decl

val program :
  ?repeats:bool ->
  name:string ->
  params:Assume.t ->
  arrays:array_decl list ->
  phase list ->
  program
