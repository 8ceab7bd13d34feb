(** Discrete DSM machine simulator (the Cray T3D stand-in).

    Prices a program's memory traffic phase by phase under an
    iteration/data distribution plan, charging [t_local] or [t_remote]
    cycles per access against the owning processor's clock.  Each
    phase's accounting is one {!Ilp.Distribution.tally_symbolic} over
    every declared array (its enumeration twin when the phase leaves
    the symbolic fragment), computed once and applied every round.
    The schedule's aggregated single-sided [put] events are priced as
    {!Comm.walk} delivers them: redistributions on entry to a phase,
    frontier updates on exit (the schedule holds those only after a
    phase that wrote the array), each costing as much as its busiest
    processor.
    Parallel time sums the phase maxima and the event times;
    efficiency is measured against the same program replayed
    sequentially with every access local. *)

open Locality

type phase_stats = {
  name : string;
  local : int;  (** local accesses *)
  remote : int;
  compute : int;  (** work cycles *)
  time : float;  (** parallel time of this phase (max over processors) *)
}

type comm_kind = Redistribution | Frontier_update

type comm_stats = {
  array : string;
  kind : comm_kind;
  before_phase : int;
      (** redistribution: fires before this phase; frontier update:
          fires after phase [before_phase - 1] *)
  words : int;  (** words moved *)
  time : float;
}

type proc_stats = {
  compute_time : float;
  access_time : float;  (** local + remote access cycles *)
}

type run = {
  h : int;
  phases : phase_stats list;
  comms : comm_stats list;
  par_time : float;  (** sum of phase maxima + communication *)
  seq_time : float;  (** one processor, all local *)
  efficiency : float;  (** seq / (h * par) *)
  total_local : int;
  total_remote : int;
  per_proc : proc_stats array;  (** work distribution across processors *)
}

val run :
  ?rounds:int ->
  ?on_error:(string -> unit) ->
  Lcg.t ->
  Ilp.Distribution.plan ->
  Ilp.Cost.machine ->
  run
(** [rounds] (default 1) replays the whole phase sequence that many
    times - the steady state of a repeating (timestep) program,
    including the wrap-around layout boundary between the last and
    first phases.  [on_error] receives schedule-generation diagnostics
    (see {!Comm.generate}), and one message per halo'd array whose size
    does not evaluate: such an array cannot be shown fully replicated,
    so its reads are priced as not replicated.  The schedule is
    delivered as generated:
    the modelled machine's single-sided [put]s do not drop. *)

val pp : Format.formatter -> run -> unit

