(** Access attributes and privatizability (paper, Sec. 4 opening).

    Each (phase, array) node of the LCG carries one of four attributes:
    W (write-only), R (read-only), RW, or P (privatizable).  Following
    the paper's restricted definition, an array is privatizable in a
    phase when (a) within every parallel iteration each read location
    was previously written by the same iteration, and (b) the values it
    holds after the phase are dead - every later access overwrites
    before reading, considering the wrap-around edge when the program
    repeats.

    Both conditions are checked concretely under the analyzed parameter
    environment (the analysis-time analogue of the paper relying on
    Polaris' dynamic-scope privatization tests): a location-precise
    def-before-use scan per iteration, and a forward kill/expose scan
    across the following phases. *)

open Symbolic
open Types

type attr = R | W | RW | P

val equal_attr : attr -> attr -> bool
val attr_to_string : attr -> string

val static_attr : program -> phase -> array:string -> attr
(** R / W / RW from the reference kinds alone (never P). *)

val attr : program -> Env.t -> Shape.t option Lazy.t array -> int -> array:string -> attr
(** Attribute of phase [k] for [array] under [env]: P when the phase
    writes [array] and both conditions, (a) and (b), hold there.  The
    array holds each phase's {!Shape.of_phase} at [env], read by the
    closed-form scans (forced only when asked). *)

val attrs : program -> Env.t -> Shape.t option Lazy.t array -> (string * attr array) list
(** Per array: attribute of each phase that references it, indexed by
    phase position ([attr] of unreferenced phases is irrelevant and
    reported as [R]). *)
