(** The benchmark registry: the nine codes of the evaluation, with a
    uniform way to obtain a concrete parameter environment from one
    size knob.

    Each code is defined once, as the surface-language program
    [examples/programs/<name>.dsm]; the library embeds those files and
    parses them when it is initialized. *)

open Symbolic
open Ir.Types

type entry = {
  name : string;
  program : program;
  env_of_size : int -> Env.t;
      (** interprets the knob per code: TFFT2 takes [p = q = size]
          (array 2*4^size), grid codes take [N = {!pow2} size]; every
          [pow2 X = x] declaration of the program is bound too *)
  default_size : int;
}

val pow2 : int -> int
(** [2^size], the extent a size knob names, or 0 once it does not fit
    an int (rather than a wrapped power). *)

val bind : program -> (string * int) list -> Env.t
(** [bind p values] binds the listed parameters, and each [pow2 X = x]
    declaration of [p] whose [x] is listed to [{!pow2} x]:
    [bind tfft2 [ ("p", 4); ("q", 2) ]] also binds [P = 16], [Q = 4]. *)

val all : entry list

val fig1 : program
(** The paper's Figure 1, TFFT2's phase F3 on X alone
    ([examples/programs/tfft2_f3.dsm]). *)

val find : string -> entry
(** @raise Not_found for unknown names. *)

val names : string list
