(** Array Reference Descriptors (paper, Sec. 2).

    The ARD of the s-th reference to array X in phase F_k is the tuple
    (alpha, delta, lambda, tau): per enclosing loop, the iteration count
    [alpha_j = (phi(hi_j) - phi(lo_j)) / delta_j + 1], the absolute
    stride [delta_j = |phi(i_j + 1) - phi(i_j)|], the stride sign
    [lambda_j], and the offset [tau = phi] at all loop lower bounds.
    Strides and counts are symbolic and may depend on other loop
    indices (the paper's [J * 2^(L-1)] stride in TFFT2).

    When a subscript is not uniform in its own index (stride varies with
    the index itself, e.g. a quadratic subscript) no LMAD exists; the
    reference degrades to an inexact whole-array descriptor, which every
    downstream consumer treats conservatively. *)

open Symbolic
open Ir

type dim = {
  alpha : Expr.t;  (** iteration count (>= 1) *)
  stride : Expr.t;  (** absolute stride; zero for loop-invariant dims *)
  sign : int;  (** +1 / -1; +1 for zero strides *)
  vars : string list;  (** loop vars this dim accounts for (provenance) *)
  uniform : bool;
      (** false when the stride depends on its own loop index (the
          paper's [J*2^(L-1)] stride for the [L] loop of TFFT2) - the
          descriptor is then symbolic rather than rectangular *)
}

type t = {
  array : string;
  dims : dim list;  (** one per nest loop, outermost first *)
  offset : Expr.t;
  mix : Access_mix.t;
  exact : bool;  (** false for the whole-array fallback *)
  phi : Expr.t;  (** linearized subscript (provenance) *)
  par_var : string option;  (** parallel loop var of the owning phase *)
}

exception Unsupported
(** Raised internally while a dimension is analyzed; {!of_site} catches
    it and degrades to {!whole_array}.  Exported so callers can treat
    an escape (a bug) as a recoverable analysis failure. *)

val of_site : Phase.t -> Phase.site -> t
(** Builds the descriptor of one reference site from its steps
    ({!Phase.step}); normalizes every {e sequential} dimension to a
    positive direction (folding the span into the offset), keeping the
    sign only on the parallel dimension where it encodes
    increasing/decreasing access - what reverse storage symmetry
    needs.  Each call counts one [descriptor.ard]. *)

type phase = {
  ctx : Phase.t;
  ards : t list;  (** one per site of [ctx], in the same order *)
}
(** A phase's descriptors: built once, read by every PD of the phase
    ({!Pd.of_phase}), the race certifier's and the LCG's alike. *)

val of_phase : Phase.t -> phase

val of_program : Types.program -> phase Lazy.t list
(** One entry per phase of the program, in order, each built on first
    use: the phase's context ({!Phase.analyze}) and its descriptors.
    Forcing an entry raises what building it raises, again on every
    later force.  [Core.Pipeline.run] builds one list and hands it to
    lint's race rule and to [Locality.Lcg.build], so each site of the
    run is described once. *)

val pp : Format.formatter -> t -> unit
