(** End-to-end driver: the paper's whole tool-chain in one call.

    [run] takes a program with Polaris-style pre-marked parallel loops,
    a concrete parameter environment and a processor count, and
    performs: descriptor construction and simplification, attribute and
    privatizability analysis, intra/inter-phase locality analysis (the
    LCG), constraint generation (Table 2), overhead minimization
    (Eq. 7) and distribution planning.  [simulate] replays the program
    on the DSM machine model under the derived plan;
    [simulate_baseline] does the same under the naive BLOCK /
    owner-computes plan for comparison.

    {b Totality.}  [run] is total over well-parsed programs: each stage
    executes under a recovery wrapper that catches the analysis-layer
    exceptions with a documented conservative fallback
    ({!Diag.recoverable} failures - unsupported subscripts,
    non-rectangular regions, symbolic overflow, unbound parameters) and
    records a {!Diag.t} instead of crashing.  The degradation ladder
    (DESIGN.md, "Error handling & degradation ladder"):

    - descriptor failures degrade a reference to the whole-array
      descriptor and force its phase's edges to C (never falsely L);
    - LCG / model failures degrade to an empty graph / empty constraint
      set, which downstream yields the BLOCK baseline plan;
    - solver failures or plan-construction failures fall back to the
      BLOCK baseline plan directly.

    Passing [~strict:true] disables recovery: the first failure
    re-raises, for callers that prefer crashing to degrading. *)

open Symbolic

val recoverable : exn -> bool
(** The typed exceptions the degradation ladder knows a fallback for. *)

val describe : exn -> string
(** Human-readable one-liner for a {!recoverable} exception. *)

type t = {
  prog : Ir.Types.program;
  env : Env.t;
  machine : Ilp.Cost.machine;
  lcg : Locality.Lcg.t;
  model : Ilp.Model.t;
  solution : Ilp.Solve.result;
  plan : Ilp.Distribution.plan;
  diags : Diag.collector;  (** everything recorded during [run] *)
}

val run :
  ?machine:Ilp.Cost.machine ->
  ?strict:bool ->
  ?diags:Diag.collector ->
  Ir.Types.program ->
  env:Env.t ->
  h:int ->
  t
(** [strict] (default false) re-raises instead of degrading.  The
    {!Lint} rule pass runs over the program before any analysis stage
    (its [LINT-BOUNDS] rule also at [env]), recording its findings
    alongside the stage diagnostics; under [strict], [Error]-severity
    findings raise {!Lint.Failed} before analysis starts.  [diags]
    supplies an
    external collector (e.g. one with a [max_errors] cap); a fresh
    unbounded one is created otherwise. *)

val parse_program :
  ?diags:Diag.collector -> where:string -> string -> Ir.Types.program option
(** Total wrapper over {!Frontend.Parse.program}: a parse or lexer
    failure records a positioned [FRONTEND-PARSE] error diagnostic
    (stage [Frontend], position ["<where>:<line>"]) and returns [None]
    instead of raising.  [where] names the source for the position
    column (a path, ["<stdin>"], a generator tag). *)

val diagnostics : t -> Diag.t list
(** Diagnostics recorded so far, in order - grows as [simulate] /
    [simulate_baseline] record communication diagnostics. *)

val degraded : t -> bool
(** True when any [Error]-severity diagnostic was recorded, i.e. at
    least one stage ran on its fallback. *)

val record_comm_error : t -> string -> unit
(** Record a [COMM-SIZE] error - the [on_error] callback to hand to
    {!Dsmsim.Comm.generate} when driving the simulator manually. *)

val simulate : ?rounds:int -> t -> Dsmsim.Exec.run
(** Replays under the derived plan, recording communication-schedule
    size failures ([COMM-SIZE]) into [t.diags]. *)

val simulate_baseline : ?rounds:int -> t -> Dsmsim.Exec.run

val efficiency : t -> float * float
(** (LCG-plan efficiency, BLOCK-baseline efficiency). *)

val report_core : Format.formatter -> t -> unit
(** The analysis payload alone: LCG, Table-2 model, solution, plan.
    Mode-independent by construction - the symbolic/enumerated
    differential oracle compares it byte for byte. *)

val report : Format.formatter -> t -> unit
(** {!report_core} followed (when non-empty) by the diagnostics
    table. *)
