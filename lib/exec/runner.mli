(** The real executor: the compiled program on OCaml domains.

    Where {!Dsmsim.Exec} prices a program's traffic in cycles, this
    module runs it: each phase is compiled to closures
    ({!Codegen.Compile}) and swept in parallel by [h] domains (this
    thread doubles as processor 0) over per-processor {!Shim} replicas.
    The run follows {!Dsmsim.Comm.walk}: before each sweep the incoming
    redistributions are performed as range copies, after it the
    outgoing frontier updates, all while the domains are parked at a
    barrier.  Three checks compare the
    execution against its model:

    - {b schedule parity}: messages/words actually delivered vs the
      {!Dsmsim.Comm} schedule under the same gating, counted by a
      separate walk that delivers nothing;
    - {b staleness}: every executed read is paired, per (round, phase,
      parallel iteration) stream, with the value a sequential replay of
      the same closures produced - a mismatch means the replica served
      a stale copy;
    - {b content parity}: cells written during the final layout epoch
      must match the replay in the final owner's replica.

    Wall-clock speedup is measured against the sequential replay; the
    [spin] knob scales each statement's abstract work cycles into real
    compute so the measurement is not pure scheduling overhead. *)

open Locality
open Ilp

exception Unsupported of string
(** Re-export of {!Codegen.Compile.Unsupported}: also raised when an
    array's size does not evaluate under the program environment or an
    access falls outside its array. *)

(** {1 The replica machine}

    What the parallel run and the dataflow validator ({!Validate})
    share: the compiled phases and one {!Shim} window per processor
    and array, served by the same handlers. *)

type machine = {
  plan : Distribution.plan;
  sched : Dsmsim.Comm.schedule;
  compiled : Codegen.Compile.t array;  (** one per phase *)
  sizes : (string * int) list;  (** every declared array, in order *)
  placement : (string, Distribution.layout option) Hashtbl.t array;
      (** per phase, {!Ilp.Distribution.placement} of every array *)
  shim : Shim.t;
}

val machine :
  ?on_error:(string -> unit) ->
  ?sched:Dsmsim.Comm.schedule ->
  Lcg.t ->
  Distribution.plan ->
  machine
(** [sched] defaults to {!Dsmsim.Comm.generate}; [on_error] receives
    its and the array sizes' diagnostics.  @raise Unsupported as
    {!execute}. *)

type check = par:int option -> array:string -> addr:int -> float -> unit

val par_handlers :
  machine ->
  spin:int ->
  sync:(unit -> unit) ->
  check:check ->
  me:int ->
  round:int ->
  k:int ->
  Codegen.Compile.handlers
(** Processor [me]'s accesses in phase [k] of [round].  A read is
    served from [me]'s window when {!Ilp.Distribution.read_is_local}
    holds or the array has no placement, else from the owner's, and
    its value passed to [check]; a write stores the given value in
    [me]'s window and through to the owner's. *)

val deliver : machine -> Dsmsim.Comm.event -> unit
(** One scheduled event's messages, by {!Shim.deliver}. *)

val sweep_seq : Codegen.Compile.t -> Codegen.Compile.handlers -> unit
(** Every iteration of the phase, in program order. *)

val seq_window : Shim.t -> array:string -> addr:int -> Shim.window
(** The window of a one-processor shim holding a sequential memory.
    @raise Unsupported when [addr] is outside the array. *)

(** {1 The parallel run} *)

type result = {
  h : int;
  rounds : int;
  wall_par : float;  (** seconds, parallel run (clamped positive) *)
  wall_seq : float;  (** seconds, sequential replay *)
  speedup : float;  (** wall_seq / wall_par *)
  busy : float array;  (** per-domain seconds inside phase sweeps *)
  sched_messages : int;  (** scheduled messages actually delivered *)
  sched_words : int;
  expected_messages : int;  (** the Comm schedule under the same gating *)
  expected_words : int;
  remote_gets : int;  (** direct reads served by an owner's replica *)
  remote_puts : int;  (** direct write-throughs to an owner's replica *)
  local_accesses : int;
  reads_checked : int;  (** reads paired with a replay value *)
  stale : int;
  stale_examples : (string * int * int) list;  (** array, addr, phase *)
  content_cells : int;  (** final-epoch cells compared *)
  content_mismatches : int;
  arrays_compared : string list;
  arrays_skipped : string list;
      (** no layout in the final epoch, or nothing written under it *)
  errors : string list;  (** schedule diagnostics and worker failures *)
}

val schedule_parity : result -> bool
(** Delivered messages and words equal the schedule's exactly. *)

val ok : result -> bool
(** Parity holds, no stale reads, no content mismatches, no errors. *)

val execute :
  ?rounds:int ->
  ?spin:int ->
  ?check_reads:bool ->
  Lcg.t ->
  Distribution.plan ->
  result
(** [rounds] (default 1) as in {!Dsmsim.Exec.run}.  [spin] (default 0)
    multiplies each statement's work cycles into a busy-loop of that
    many iterations.  [check_reads] (default true) builds the replay's
    expected-read streams (capped at 5M reads; reads beyond the cap are
    executed but not checked).  @raise Unsupported when the program
    cannot be compiled or an array cannot be allocated. *)

val pp : Format.formatter -> result -> unit
