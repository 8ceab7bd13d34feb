(** Executable emission: compile a phase into closures.

    Where {!Spmd} prints the node program as prose, this module builds
    it as closures the real executor (library [exec]) runs, on top of
    the compiled nest of {!Ir.Enumerate.compile} - the same addressing
    the enumerating oracle walks.  It adds only the CYCLIC(p_k)
    schedule of {!Ilp.Distribution.proc_of_iteration}, walked chunk by
    chunk ({!Ilp.Distribution.own_chunks}), serial statements on
    processor 0, barriers above the parallel loop and reads-then-writes
    order within each assignment.  What an access does is the
    {!consumer}'s: each site is bound to it once per sweep, so a
    parallel execution, a sequential replay and the validator walk the
    same addresses in the same order. *)

open Symbolic
open Ilp

exception Unsupported of string
(** A construct the compiler cannot close over: an unbound parameter,
    an array extent that does not evaluate, a rank mismatch (the
    {!Ir.Enumerate.nest.unsupported} of the phase). *)

type site = {
  array : string;
  access : Ir.Types.access;
  index : int;  (** the reference's textual position within its statement *)
  parallel : bool;  (** inside the parallel loop *)
}

type consumer = {
  bind : site -> int -> unit;
      (** asked once per site at the start of a sweep; the returned
          action runs on each executed access, given its flat address *)
  assign : int -> unit;
      (** at the start of each executed assignment, given its work
          cycles; its reads, then its writes, follow in textual order *)
  iteration : int -> unit;
      (** at the start of each executed parallel-loop iteration *)
  sync : unit -> unit;
      (** called by {e every} processor (regardless of ownership) after
          each child of a serial loop that encloses the parallel loop -
          the points where cross-processor dependences can cross.  The
          executor parks a barrier here; the replay and the validator
          pass a no-op. *)
}

type t = {
  phase_name : string;
  shapes : Ir.Enumerate.shape list;
      (** every compiled expression, in compile order *)
  sweep : me:int option -> consumer -> unit;
      (** [me = Some p] executes only processor [p]'s chunks of the
          CYCLIC(chunk) schedule (serial statements run on processor 0;
          a phase with no parallel loop is a no-op for [p <> 0]);
          [me = None] executes every iteration in program order - the
          sequential replay. *)
}

val phase :
  Ir.Types.program -> Env.t -> Distribution.plan -> int -> Ir.Types.phase -> t
(** [phase prog env plan k ph] compiles phase [k] under the plan's
    chunk size and processor count.  @raise Unsupported as above. *)

val program : Ir.Types.program -> Env.t -> Distribution.plan -> t list
(** All phases, in order. *)
