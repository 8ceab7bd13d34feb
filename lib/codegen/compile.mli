(** Executable emission: compile a phase into closures.

    Where {!Spmd} prints the node program as prose, this module builds
    it as closures the real executor (library [exec]) runs, on top of
    the compiled nest of {!Ir.Enumerate.compile} - the same addressing
    the enumerating oracle walks.  It adds only the CYCLIC(p_k)
    schedule of {!Ilp.Distribution.proc_of_iteration}, serial
    statements on processor 0, barriers above the parallel loop and
    reads-then-writes {!handlers} dispatch, so a parallel execution and
    a sequential replay are comparable address by address. *)

open Symbolic
open Ilp

exception Unsupported of string
(** A construct the compiler cannot close over: an unbound parameter,
    an array extent that does not evaluate, a rank mismatch (the
    {!Ir.Enumerate.nest.unsupported} of the phase). *)

type handlers = {
  read : par:int option -> array:string -> addr:int -> float;
      (** value of one array cell; [par] is the parallel-loop iteration
          (None in serial statements) *)
  write : par:int option -> array:string -> addr:int -> v:float -> unit;
  stamp : site:int -> addr:int -> float;
      (** deterministic per-write salt; [site] is the reference's
          textual position within its statement *)
  work : par:int option -> work:int -> unit;
      (** charged once per executed assignment *)
  sync : unit -> unit;
      (** called by {e every} processor (regardless of ownership) after
          each child of a serial loop that encloses the parallel loop -
          the points where cross-processor dependences can cross.  The
          executor parks a barrier here; the replay and the simulator
          pass a no-op. *)
}

type t = {
  phase_name : string;
  nslots : int;  (** loop-variable slot file size the sweep needs *)
  shapes : Ir.Enumerate.shape list;
      (** every compiled expression, in compile order *)
  sweep : slots:int array -> me:int option -> handlers -> unit;
      (** [me = Some p] executes only processor [p]'s share of the
          CYCLIC(chunk) schedule (serial statements run on processor 0;
          a phase with no parallel loop is a no-op for [p <> 0]);
          [me = None] executes every iteration in program order - the
          sequential replay.  [slots] must have at least [nslots]
          cells and is scratch space owned by the caller. *)
}

val phase :
  Ir.Types.program -> Env.t -> Distribution.plan -> int -> Ir.Types.phase -> t
(** [phase prog env plan k ph] compiles phase [k] under the plan's
    chunk size and processor count.  @raise Unsupported as above. *)

val program : Ir.Types.program -> Env.t -> Distribution.plan -> t list
(** All phases, in order. *)
