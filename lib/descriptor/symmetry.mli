(** Storage symmetry distances (paper, Sec. 3, Fig. 5).

    Rows of an ID that describe congruent sub-regions are related by a
    {e distance}:

    - {b shifted} [Delta_d]: same pattern and same parallel direction,
      the second region a constant distance above the first (the two
      mirrored halves of an out-of-place FFT);
    - {b reverse} [Delta_r]: same pattern but opposite parallel
      directions - one subscript increases with the parallel index
      while the other decreases;
    - {b overlapping} [Delta_s]: the sub-regions of consecutive
      parallel iterations share elements (stencil ghost zones); the
      distance is the number of shared elements.

    Distances feed the ILP's storage constraints (Table 2) and
    Theorem 1's overlap condition. *)

open Symbolic

type overlap =
  | No_overlap
  | Overlap of Expr.t  (** Delta_s: number of shared elements *)
  | Overlap_unknown
      (** sampling found consecutive iterations sharing addresses but no
          closed-form distance exists (non-dense rows) - treated as
          overlapping by every consumer (conservative) *)

type t = {
  shifted : Expr.t list;  (** one Delta_d per congruent shifted row pair *)
  reverse : Expr.t list;  (** one Delta_r per reverse row pair *)
  overlap : overlap;
  write_overlap : bool;
      (** some {e written} cell is shared between consecutive
          iterations' regions - the condition that actually defeats
          Theorem 1 (shared cells that are only read are replicated as
          ghosts); conservative [true] when sampling fails *)
}

val analyze : Id.t -> t
val has_overlap : Id.t -> bool

val region : Id.t -> Env.t -> int -> Lattice.Iv.t
(** The cells the ID's rows cover at parallel iteration [i] in [env]:
    the sampled region whose pairwise overlap sizes Delta_s. *)

val pp : Format.formatter -> t -> unit
