(** The benchmark registry: the six codes of the evaluation, with a
    uniform way to obtain a concrete parameter environment from one
    size knob. *)

open Symbolic
open Ir.Types

type entry = {
  name : string;
  program : program;
  env_of_size : int -> Env.t;
      (** interprets the knob per code: TFFT2 takes [p = q = size]
          (array 2*4^size), grid codes take [N = {!pow2} size] *)
  default_size : int;
}

val pow2 : int -> int
(** [2^size], the extent a size knob names, or 0 once it does not fit
    an int (rather than a wrapped power). *)

val all : entry list
val find : string -> entry
(** @raise Not_found for unknown names. *)

val names : string list
