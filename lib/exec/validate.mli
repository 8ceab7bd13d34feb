(** Dataflow validation of the communication schedule.

    The simulator ({!Dsmsim.Exec}) prices accesses; this module checks
    {e correctness}: it verifies that under the plan plus the generated
    communication schedule ({!Dsmsim.Comm}), every read observes the
    value sequential execution would produce.

    It runs on the executor's replica machine ({!Runner.machine}), in
    one domain: each phase's compiled closures sweep in sequential
    order under {!Dsmsim.Comm.walk}, and each access goes to the
    {!Runner.par_handlers} of the processor that owns its parallel
    iteration (serial statements to processor 0) - the same per-processor
    {!Shim} windows, serving rule, write-through and message delivery
    the parallel run uses.  Each write stores a version, the count of
    writes so far in sequential order, instead of a value; a read is
    {e stale} when the window serving it does not hold the version the
    sequential memory holds.  Privatized arrays are outside the check.

    A zero-stale result certifies that the plan's layout epochs, halo
    widths, copy-in elisions and frontier updates are mutually
    consistent - the property the paper's Theorems 1-2 promise. *)

open Locality

type report = {
  reads : int;
  stale : int;
  stale_examples : (string * int * int) list;
      (** up to 10 (array, addr, phase) witnesses *)
}

val run :
  ?rounds:int ->
  ?on_error:(string -> unit) ->
  ?sched:Dsmsim.Comm.schedule ->
  Lcg.t ->
  Ilp.Distribution.plan ->
  report
(** [sched] overrides the generated communication schedule - used to
    show that a schedule with messages removed is caught.  [on_error]
    receives schedule-generation diagnostics (see
    {!Dsmsim.Comm.generate}).  The replica machine holds [h] windows
    per array.  @raise Runner.Unsupported when the program cannot be
    compiled, an array size does not evaluate or an access falls
    outside its array. *)

type verdict =
  | Pass  (** some reads were checked and none was stale *)
  | Stale  (** at least one read was stale *)
  | Checked_nothing  (** no read was checked, so nothing was certified *)

val verdict : report -> verdict
(** The one rule for reading a report: [Stale] wins, and a report of
    zero reads is [Checked_nothing], never a pass. *)

val pp : Format.formatter -> report -> unit
