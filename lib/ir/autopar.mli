(** Automatic parallel-loop detection: the Polaris stand-in.

    The paper assumes an auto-parallelizer has already marked one
    parallel loop per phase.  This module provides that step for
    programs written without markings: for each phase it finds the
    outermost loop whose iterations carry no dependence and marks it
    [parallel] (clearing any deeper marking, preserving the at-most-one
    phase invariant).

    The dependence test is dynamic and exact per sample, in the spirit
    of this repo's oracle-first approach: under each sampled parameter
    environment the loop's iterations are executed abstractly and their
    access sets intersected - a loop is independent iff no address
    written by one iteration is touched by another.  Sampling makes the
    verdict probabilistic in the same sense as {!Symbolic.Probe}; a
    loop is only marked when every sample agrees, so false positives
    require an access pattern that changes shape between samples.

    Per-iteration scratch (an address always written before read within
    the same iteration, and dead after the loop) does {e not} block
    parallelization - that is privatization, handled downstream by
    {!Liveness}. *)

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

val independent :
  program -> Env.t -> phase -> loop_path:int list -> bool
(** Is the loop reached by descending [loop_path] (child indices from
    the nest root, [] = the root loop) free of loop-carried
    dependences under [env]?  This is the {e dynamic oracle}: exact per
    environment, probabilistic across environments. *)

(** {1 Certified marking}

    A {!certifier} is a static decision procedure consulted {e before}
    the sampling oracle (the descriptor-based one lives in
    [Descriptor.Racecheck]; it is injected here because the descriptor
    layer is built on top of this library).  [`Independent] and
    [`Dependent] are trusted as proofs; sampling is the fallback for
    [`Unknown] only. *)

type verdict = [ `Independent | `Dependent | `Unknown ]

type certifier = program -> phase -> loop_path:int list -> verdict

type source = Certified | Sampled  (** how a marking decision was reached *)

type probe_report = {
  path : int list;
  var : string;  (** loop variable at [path] *)
  static_verdict : verdict option;  (** [None] when no certifier given *)
  sampled : bool option;  (** [None] when no environments available *)
}

type decision = {
  dec_phase : phase;  (** the re-marked phase *)
  chosen : (int list * source) option;
      (** the marked loop and which procedure justified it *)
  probes : probe_report list;
      (** every loop examined, outermost-first, ending at the chosen one *)
}

val mismatch : probe_report -> bool
(** The static and sampled verdicts contradict each other (a certified
    independence the oracle refutes, or a certified dependence the
    oracle never observed). *)

val mismatches : decision -> probe_report list

val decide : ?certify:certifier -> ?envs:Env.t list -> program -> phase -> decision
(** Full marking decision for one phase: walk the loops outermost-first
    and accept the first whose certifier verdict is [`Independent], or -
    when the certifier answers [`Unknown] (or is absent) - the first
    that every sampled environment finds independent.  A [`Dependent]
    verdict rejects the loop even when sampling disagrees; the
    disagreement is visible through {!mismatches} rather than silently
    resolved.  [envs] defaults to 3 samples of the parameter domains. *)

val mark_phase : ?certify:certifier -> ?envs:Env.t list -> program -> phase -> phase
(** [decide] keeping only the re-marked phase. *)

val mark : ?certify:certifier -> ?envs:Env.t list -> program -> program
(** [mark_phase] over every phase. *)

val recognize_reductions : ?envs:Env.t list -> program -> program
(** Reduction privatization, the transformation Polaris applies before
    marking: a phase whose outermost loop is blocked {e only} by a
    scalar accumulator ([... S(c) ... = ... S(c) ...] with a
    loop-invariant subscript) is split into a parallel partial-
    accumulation phase over a fresh [__red_S] array (one slot per
    iteration) and a short sequential combine phase folding the slots
    back into [S(c)].  Phases where the pattern does not apply are left
    untouched; run {!mark} afterwards to parallelize the result. *)
