(** Structured diagnostics for the analysis pipeline.

    Every recoverable failure inside {!Pipeline.run} (and the simulator
    entry points it drives) is recorded here instead of crashing the
    run: a diagnostic carries the severity, the pipeline stage that hit
    the problem, a stable machine-readable code, and a human-readable
    message.  The collector accumulates diagnostics across stages so a
    single run can report everything it degraded on; an optional
    [max_errors] cap aborts runs that degrade too much to be useful.

    Severities:
    - [Info]: bookkeeping (e.g. where analysis left the closed form);
    - [Warning]: the analysis degraded conservatively but the result is
      still sound (whole-array descriptors, violated locality rows);
    - [Error]: a whole stage failed and was replaced by its documented
      fallback (see DESIGN.md, "Error handling & degradation ladder").

    Stable codes currently emitted:
    - [DESC-WHOLE-ARRAY]: a reference degraded to the conservative
      whole-array descriptor (its phase's edges are forced to C);
    - [LCG-FAIL], [MODEL-FAIL], [SOLVE-FAIL], [PLAN-FAIL]: stage-level
      degradation to the documented fallback;
    - [SOLVE-BROKEN]: one per row the solve could not meet, led by
      its reason code ({!Ilp.Solve.pp_broken}): [locality-violated]
      (priced as communication instead) or [storage-unmeetable] (its
      phase is capped at [p = 1]);
    - [SOLVE-BUDGET]: the Eq. 7 solution is exact, but some
      component's representative window is wider than the plan stage
      can tally (see {!Ilp.Solve.result}), so the run falls back to the
      BLOCK baseline plan;
    - [COMM-SIZE]: an array size would not evaluate while generating
      the communication schedule (the array's messages are omitted);
    - [LINT-*]: the static lint catalog (see {!Lint.catalog} and
      DESIGN.md, "Static certification & lint catalog");
    - [RACE-ORACLE-MISMATCH]: the static race certifier and the dynamic
      sampling oracle contradicted each other on a loop - a soundness
      alarm, never silently resolved (emitted by {!Lint.autopar}).

    The optional [where] field pins a diagnostic to a program location:
    by convention ["<phase>/<loop var>"] for loop-level findings (e.g.
    ["SWEEP/j"]), ["<phase>"] for phase-level ones, or an array name
    for declaration-level ones. *)

type severity = Info | Warning | Error

type stage =
  | Frontend
  | Lint
  | Autopar
  | Descriptors
  | Lcg
  | Model
  | Solve
  | Plan
  | Comm

type t = {
  severity : severity;
  stage : stage;
  where : string option;  (** source position: phase / loop / array *)
  code : string;  (** stable machine-readable code, e.g. [DESC-WHOLE-ARRAY] *)
  message : string;
}

exception Too_many_errors of int
(** Raised by {!add} when the collector's [max_errors] cap is hit; the
    payload is the cap. *)

type collector

val collector : ?max_errors:int -> unit -> collector
(** A fresh accumulating collector.  [max_errors] bounds the number of
    [Error]-severity diagnostics accepted before {!add} raises
    {!Too_many_errors} (unbounded by default). *)

val add :
  collector ->
  severity:severity ->
  stage:stage ->
  ?where:string ->
  code:string ->
  string ->
  unit

val addf :
  collector ->
  severity:severity ->
  stage:stage ->
  ?where:string ->
  code:string ->
  ('a, unit, string, unit) format4 ->
  'a
(** [Printf]-style variant of {!add}. *)

val to_list : collector -> t list
(** Diagnostics in the order they were recorded. *)

val count : collector -> int
val errors : collector -> int
(** Number of [Error]-severity diagnostics recorded so far. *)

val has_errors : collector -> bool

val severity_to_string : severity -> string
val stage_to_string : stage -> string

val where_to_string : t -> string
(** The [where] field, or ["-"] when absent. *)

val pp_table : Format.formatter -> t list -> unit
(** Aligned table, one diagnostic per row; prints nothing when empty. *)
