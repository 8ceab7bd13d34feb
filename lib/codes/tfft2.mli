(** The paper's running example: an 8-phase section of TFFT2 (NASA
    benchmark), Figures 1 and 6.

    Only phase F3 (CFFTZWORK) is given in source form by the paper
    (Fig. 1); the other seven are reconstructed so that the analysis
    derives exactly the locality/load-balance/storage constraint system
    of Table 2 for array X and the balanced-locality systems of
    Eqs. 4-6 and Fig. 9:

    - F1 [DO_100_RCFFTZ]  (par P*Q): X read in pairs, Y written with a
      shifted copy at distance P*Q (Delta_d^12 = PQ).
    - F2 [TRANSA]         (par P):   X written by columns of a P x 2Q
      matrix (yields Eq. 4's [p2 + 2QP - P] term), Y read in Q-blocks
      with the +PQ copy (p12 = Q p22, Delta_d^22 = PQ).
    - F3 [CFFTZWORK]      (par Q):   the verbatim Fig. 1 nest on X
      (non-affine 2^(L-1) subscripts), plus a per-iteration workspace
      region of Y (privatizable: written before read, dead after).
    - F4 [TRANSC]         (par Q):   X read back in [2Pi .. 2Pi+P-1]
      blocks (p31 = p41, Fig. 9), Y overwritten transposed (the C edge
      into F5).
    - F5 [CMULTF]         (par P):   Y read in 2Q-blocks, X written in
      2Q-blocks (P p41 = Q p51).
    - F6 [CFFTZWORK]      (par P):   Y workspace written then read, X
      written in 2Q-blocks (p51 = p61).
    - F7 [TRANSB]         (par P):   X read in 2Q-blocks (p61 = p71).
    - F8 [DO_110_RCFFTZ]  (par P*Q): X and Y accessed four ways -
      [m], [m+PQ] (shifted, Delta_d = PQ) and the reversed
      [PQ-1-m], [2PQ-1-m] (Delta_r ~ PQ and 2PQ), giving
      2Q p71 = p81 and the storage constraints of Table 2.

    Both arrays have 2*P*Q elements; P = 2^p and Q = 2^q are the
    benchmark's input parameters. *)

open Symbolic
open Ir.Types

val params : Assume.t
(** p in 2..6, q in 1..5, P = 2^p, Q = 2^q. *)

val phase_f3 : phase
(** Figure 1 verbatim (X references only). *)

val fig1_program : program
(** A single-phase program holding {!phase_f3} - the Fig. 2/3/4/8
    object of study. *)

val program : program
(** The full 8-phase pipeline of Fig. 6 / Table 2. *)

val env : p:int -> q:int -> Env.t
(** Concrete parameter environment: binds p, q, P, Q. *)
