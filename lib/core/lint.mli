(** Rule-driven static lint pass over the IR.

    Checks a whole program against a catalog of stable [LINT-*] codes
    before any descriptor machinery runs, so malformed inputs are
    reported with precise positions (phase name, loop variable, array)
    instead of surfacing later as stage-level degradation.  Each rule
    emits through {!Diag} with stage [Lint]; the pipeline runs the pass
    up front and, under [--strict], refuses to analyze a program with
    [Error]-severity findings.

    The catalog (see DESIGN.md, "Static certification & lint catalog"):

    - [LINT-MULTI-PARALLEL] (error): more than one loop of a phase is
      marked parallel - the IR's phase condition.
    - [LINT-UNDECLARED-ARRAY] (error): a reference names an array with
      no declaration.
    - [LINT-SUBSCRIPT] (warning; error for rank mismatches): a
      subscript outside the affine class the descriptors model exactly
      (non-linear in a loop index), or a reference whose rank differs
      from the declaration.
    - [LINT-UNBOUND-PARAM] (error): a loop bound, subscript or array
      extent mentions a variable that is neither an enclosing loop
      index nor a declared program parameter.
    - [LINT-NONNORMAL] (info): a loop that does not run from 0 with
      step 1 (normalized automatically downstream; recorded because
      the paper's formulas assume normalized indices).
    - [LINT-BOUNDS] (error): under a sampled parameter environment,
      or at the analyzed one when {!check} is given [at], some access
      falls outside the array's declared extent.
    - [LINT-DEAD-WRITE] (warning): an array is written but never read
      anywhere in the program - either dead computation or the
      program's un-consumed output.
    - [LINT-RACE] (error): a loop declared parallel carries a
      cross-iteration dependence - refuted by the static certifier
      ({!Descriptor.Racecheck}) or caught by the sampling oracle.
    - [LINT-UNCERTIFIED] (info): a declared parallel loop the
      certifier cannot decide; sampling found no conflict, so the
      marking stands on probabilistic evidence only. *)

open Symbolic

exception Failed of Diag.t list
(** Raised by {!Pipeline.run} under [--strict] when lint found
    [Error]-severity problems; carries every finding. *)

val catalog : (string * Diag.severity * string) list
(** Every stable code with its default severity and a one-line
    description, in emission order. *)

val default_envs : Ir.Types.program -> Env.t list
(** The 3 seeded samples of the program's parameter domains that the
    dynamic rules use unless {!check} is given [envs]. *)

val check :
  ?envs:Env.t list ->
  ?at:Env.t ->
  ?ards:Descriptor.Ard.phase Lazy.t list ->
  ?diags:Diag.collector ->
  Ir.Types.program ->
  Diag.t list
(** Run every rule over every phase and return the findings (also
    recorded into [diags] when given).  [envs] are the sampled parameter
    environments for the dynamic rules (default: {!default_envs}).
    [LINT-RACE] / [LINT-UNCERTIFIED] judge each declared parallel loop
    by {!Descriptor.Racecheck.certify}, from the phase's entry of [ards]
    (the program's descriptors, {!Descriptor.Ard.of_program}; built
    here when not given), and sample it with {!Ir.Autopar.sampled}
    only when the certifier answers [Unknown].
    [at] is the environment being analyzed: [LINT-BOUNDS] also checks
    it.  Every environment is judged from {!Ir.Shape.ranges}, reporting
    the extreme address outside an extent; a phase without them is
    walked as a [lint-bounds] fallback ({!Symbolic.Lattice.note_fallback}),
    reported as [LINT-SYMBOLIC-FALLBACK] under [Symbolic_only]. *)

val autopar :
  ?envs:Env.t list -> ?diags:Diag.collector -> Ir.Types.program -> Ir.Types.program
(** Certified auto-parallelization: {!Ir.Autopar.recognize_reductions}
    followed, phase by phase, by {!Descriptor.Racecheck.decide}, both
    sampling [envs] (default: {!default_envs}).  Every
    {!Descriptor.Racecheck.mismatch} found while marking is emitted as
    an [Error] diagnostic with code [RACE-ORACLE-MISMATCH] (stage
    [Autopar]) instead of being silently resolved; the marking itself
    always trusts the certifier.  A sample that cannot be evaluated
    (an unbound variable, say) marks nothing and raises nothing: the
    lint rules then report the cause. *)
