(** Compile-time label stability.

    The LCG is built for one concrete parameter environment and
    processor count, but a compiler wants labels that hold for the
    deployment range: this module rebuilds the LCG under sampled
    parameter environments and a list of candidate processor counts and
    reports, per edge, whether its label is invariant - and if not,
    how it moves (typically L at small H degrading to C when the
    load-balance bounds squeeze the balanced solutions out, as in the
    paper's Eqs. 4-6 discussion). *)

open Symbolic

type edge_report = {
  array : string;
  src : string;
  dst : string;
  labels : (int * Table1.label list) list;
      (** per H: the labels seen across the sampled environments *)
  stable : Table1.label option;
      (** the label when it is the same everywhere *)
}

type t = edge_report list

val analyze : ?h_values:int list -> Ir.Types.program -> t
(** Each edge's label under every {!sample_envs} environment at each H
    of [h_values] (default [2; 4; 8; 16; 32; 64]). *)

val all_stable : t -> bool
val pp : Format.formatter -> t -> unit
val sample_envs : Ir.Types.program -> Env.t list
(** The 3 seeded samples of the program's parameter domains. *)
