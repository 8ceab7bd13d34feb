(** The differential-check battery one fuzzed program runs through.

    Each check compares two independent computations of the same answer
    and fails only on disagreement - a failing check is a bug in one of
    the two paths, never a property of the generated program:

    - [roundtrip]: unparse -> parse -> unparse is a fixed point;
    - [enum-parity]: {!Core.Pipeline.report_core} is byte-identical
      under the closed-form symbolic accounting and the enumeration
      oracle ([Lattice.Enumerated_only]), and the diagnostics agree
      modulo the mode-dependent [LINT-SYMBOLIC-FALLBACK] note;
    - [race-oracle]: the static race certifier never contradicts the
      dynamic sampling oracle ({!Core.Lint.autopar}'s
      [RACE-ORACLE-MISMATCH]);
    - [ilp-chain]: the Eq. 7 solve's chain point ({!Ilp.Solve.solve})
      satisfies, in exact integers, the model's unbroken locality rows,
      its load-balance bounds and its unbroken storage rows;
    - [comm-parity]: the communication schedule generated from a fixed
      (LCG, plan) pair is identical under both accounting modes;
    - [cold-warm]: re-analyzing the same source with warm probe banks
      reproduces the cold run's report byte for byte;
    - [exec-parity]: the program run on OCaml domains ({!Exec.Runner})
      delivers exactly the schedule, reads no stale value and leaves
      the replay's final contents in the owners' windows.  Skipped when
      the program cannot be compiled, or when {!Exec.Validate} already
      finds the plan stale: such a plan is a fault of the plan and its
      schedule (copy-in elision tests cover, not order), not a
      disagreement between the executor and the replay, so it is not a
      finding.  Each such skip adds one to the counter
      [fuzz.stale_plans], which a campaign's [--profile-json] reports.

    All checks run at {!h} processors under the program's midpoint
    parameter environment ({!Gen.midpoint_env}), leave the calling
    domain's [Lattice.mode_cell] as they found it, and convert any
    escaped exception into a [Fail] - the battery itself never raises. *)

type verdict = Pass | Skip of string | Fail of string

val h : int
(** The processor count every check runs at: 4.  The executor check
    runs on that many domains. *)

type check = {
  name : string;
  doc : string;
  run : Ir.Types.program -> verdict;
}

val find : string -> check
(** @raise Not_found for an unknown name - used to rebuild a shrink
    predicate from a finding's check name. *)

val battery : Ir.Types.program -> (string * verdict) list
(** Every check's verdict, in order. *)

val first_diff : string -> string -> (int * string * string) option
(** The first differing line of two texts: its 1-based number and both
    sides (["<missing>"] past the end of the shorter). *)

val diag_sig : Core.Pipeline.t -> string list
(** The run's diagnostics as [code|message] lines, without the
    mode-dependent [LINT-SYMBOLIC-FALLBACK] note - what the symbolic
    and enumerated runs must agree on. *)
