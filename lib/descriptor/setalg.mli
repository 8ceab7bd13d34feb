(** Closed-form set algebra over Phase Descriptors.

    The facade between the descriptor layer and {!Symbolic.Lattice}:
    evaluates a PD's rows under a concrete environment into stride-span
    boxes - mirroring {!Region.addresses} row for row (same
    offset evaluation, same signed parallel contribution, same unsigned
    sequential sweeps, empty rows dropped) - and answers the questions
    the pipeline used to answer by materializing the region in a hash
    table: cardinality, hull bounds, per-row overlap.  Every answer is
    exact or absent; enumeration survives only as the differential
    oracle ({!Region.addresses}) these functions are tested against.

    Functions raise {!Region.Not_rectangular} in exactly the situations
    enumeration would (a count or stride that does not evaluate), so
    existing degradation paths fire identically under both accounting
    modes - that equivalence is what makes symbolic and enumerated
    pipeline reports byte-identical. *)

open Symbolic

val boxes : Env.t -> Pd.t -> par:int option -> Lattice.box list
(** The box of every row of every group, rows that denote no addresses
    (some count evaluates [<= 0]) left out.  [par = Some i] fixes the
    parallel iteration, [None] sweeps it as an extra dimension - the
    same convention as {!Region.addresses}.
    @raise Region.Not_rectangular when a value does not evaluate.
    @raise Lattice.Overflow on address arithmetic past native range. *)

val card : Env.t -> Pd.t -> par:int option -> int option
(** Exact cardinality of the region (union of all rows), or [None]
    when the union falls outside the closed-form fragment.
    @raise Region.Not_rectangular *)

val bounds : Env.t -> Pd.t -> par:int option -> (int * int) option
(** Exact inclusive hull of the region; [None] when the region is
    empty.  Always closed-form (hull bounds of a union need no
    disjointness structure).
    @raise Region.Not_rectangular *)
