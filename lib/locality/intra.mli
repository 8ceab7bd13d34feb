(** Intra-phase locality: Theorem 1.

    All accesses of a parallel iteration to array X are local to the
    processor executing it (given the iteration's ID region is placed
    in that processor's memory) iff one of:

    (a) X is privatizable in the phase;
    (b) X is non-privatizable and the phase has no overlapping storage
        for X (consecutive iterations touch disjoint sub-regions);
    (c) X is non-privatizable, overlapping storage exists, but the
        shared cells are only {e read} (replicated overlap sub-regions
        never need updating).  The implementation checks sharing at
        cell granularity - an in-place red/black sweep whose writes
        land outside the shared cells still satisfies (c). *)

open Descriptor

type case = Privatizable | No_overlap | Overlap_read_only | Fails

type verdict = { local : bool; case : case }

val check : sym:Symmetry.t -> attr:Ir.Liveness.attr -> verdict
(** [sym] is the phase ID's storage symmetry ({!Symmetry.analyze}). *)

val case_to_string : case -> string
