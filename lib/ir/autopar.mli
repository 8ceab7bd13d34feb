(** Automatic parallel-loop detection: the Polaris stand-in's dynamic
    half.

    The paper assumes an auto-parallelizer has already marked one
    parallel loop per phase.  The marking decision itself lives in
    [Descriptor.Racecheck.decide], which walks the loops outermost-first
    and consults the descriptor-based certifier before this module's
    sampling oracle.  This module supplies what that decision and the
    lint rules share below the descriptor layer: loop paths, nest
    rewriting, the oracle, and reduction privatization.

    The dependence test is dynamic and exact per sample, in the spirit
    of this repo's oracle-first approach: under each sampled parameter
    environment the loop's iterations are executed abstractly and their
    access sets intersected - a loop is independent iff no address
    written by one iteration is touched by another.  Sampling makes the
    verdict probabilistic in the same sense as {!Symbolic.Probe}; a
    loop counts as independent only when every sample agrees, so false
    positives require an access pattern that changes shape between
    samples.

    Per-iteration scratch (an address each iteration writes before it
    reads it) {e does} block parallelization: the oracle sees the same
    address written by distinct iterations and reports a conflict, and
    no privatization step runs before it.  A loop whose iterations each
    write [T(0)] and read it back stays sequential. *)

open Symbolic
open Types

val loop_paths : loop -> int list list
(** Every loop of the nest in pre-order, as paths of [Loop]-child
    indices from the root ([[]] = the root loop itself). *)

val set_parallel : loop -> int list -> loop
(** Rewrite the nest so that exactly the loop at the given path is
    marked parallel (all other markings cleared). *)

val clear_markings : loop -> loop
(** Clear every parallel marking in the nest. *)

val loop_at : loop -> int list -> loop
(** The loop reached by descending a path of [Loop]-child indices from
    the nest root. @raise Failure on bad paths. *)

val loop_var_at : loop -> int list -> string
(** Loop variable of the loop at a path. @raise Failure on bad paths. *)

val marked_paths : loop -> int list list
(** The paths of the loops marked parallel, in pre-order. *)

val independent :
  program -> Env.t -> phase -> loop_path:int list -> bool
(** Is the loop reached by descending [loop_path] (child indices from
    the nest root, [] = the root loop) free of loop-carried
    dependences under [env]?  This is the {e dynamic oracle}: exact per
    environment, probabilistic across environments. *)

val unevaluable : exn -> bool
(** The exceptions a walk or a phase check raises on a malformed or
    out-of-class program: an unbound variable, non-integral or
    overflowing arithmetic, a division by zero, an invalid phase. *)

val sampled :
  envs:Env.t list -> program -> phase -> loop_path:int list -> bool option
(** {!independent} under every environment of [envs]: [Some true] when
    no sample finds a conflict, [Some false] when one does, and [None]
    when there is no sample or a sample raises an {!unevaluable}
    exception. *)

val recognize_reductions : envs:Env.t list -> program -> program
(** Reduction privatization, the transformation Polaris applies before
    marking: a phase whose outermost loop is blocked {e only} by a
    scalar accumulator ([... S(c) ... = ... S(c) ...] with a
    loop-invariant subscript) is split into a parallel partial-
    accumulation phase over a fresh [__red_S] array (one slot per
    iteration) and a short sequential combine phase folding the slots
    back into [S(c)].  Phases where the pattern does not apply are left
    untouched; both tests are {!sampled} under [envs], so a phase whose
    samples do not evaluate is left untouched too.  Marking the result
    is [Descriptor.Racecheck.decide]'s job. *)
