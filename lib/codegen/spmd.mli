(** SPMD code generation: the compiler back end the LCG drives.

    Emits Fortran-flavoured SPMD pseudo-code for a program under a
    distribution plan: per phase, the parallel loop is rewritten as a
    CYCLIC(p) sweep over the executing processor's own chunks; array
    declarations carry their layout epoch annotations (block size,
    period, mirror, halo); redistribution and frontier-update calls are
    inserted exactly where {!Dsmsim.Comm} schedules them, annotated
    with aggregated message counts and volumes.

    The output documents what the generated code {e would} do; it is
    prose for humans and build systems, not compilable Fortran - the
    executable semantics live in the simulator, which the test suite
    holds to the same schedule. *)

val generate :
  Locality.Lcg.t -> Ilp.Distribution.plan -> Ilp.Cost.machine -> string
