(** Communication generation (paper, Sec. 4.3 (b)).

    Turns an LCG + distribution plan into the explicit single-sided
    communication schedule a compiler would emit:

    - {b Global communications} (redistribution): at every layout-epoch
      boundary of an array, each processor [put]s the addresses whose
      owner changes to their new owner; entering a halo'd epoch adds a
      {e second} round that initializes the ghost replicas from the
      now-current owners (order matters - the dataflow validator caught
      strips forwarding pre-copy-in data).  Messages are
      {e aggregated}: one message per (src, dst) pair carrying a list
      of maximal contiguous address ranges.  A boundary emits nothing
      when the epoch's first accessing phase write-covers everything
      the epoch touches (copy-in elision).
    - {b Frontier communications}: after every phase that writes a
      halo'd array, each block owner pushes its boundary strips of
      [halo] elements to the neighbouring replicas.

    The schedule is cross-validated against the simulator's independent
    owner-change accounting in the test suite. *)

open Locality

type message = {
  src : int;
  dst : int;
  ranges : (int * int) list;  (** inclusive, maximal, sorted *)
  words : int;
}

type event =
  | Redistribute of {
      array : string;
      before_phase : int;
      messages : message list;
    }
  | Frontier of { array : string; after_phase : int; messages : message list }

type schedule = event list

val generate : ?on_error:(string -> unit) -> Lcg.t -> Ilp.Distribution.plan -> schedule
(** Events in program order; for a repeating program, events with
    [before_phase = 0] are the wrap-around boundary and apply from the
    second traversal on.  [on_error] receives a message for every array
    whose {!Locality.Lcg.size} fact does not evaluate - an unbound
    parameter, a non-integral size, or arithmetic overflow - and its
    events are omitted. *)

val walk :
  rounds:int ->
  sched:schedule ->
  phases:'a list ->
  step:
    (round:int ->
    k:int ->
    'a ->
    incoming:event list ->
    outgoing:event list ->
    unit) ->
  unit
(** The delivery protocol shared by every replay of a schedule (the
    simulator {!Exec}, the validator ([Exec.Validate]) and the domains
    executor): [step] is called once per (round, phase [k]), in order,
    with the redistribution events that enter phase [k] and the
    frontier events that leave it.  A wrap-around redistribution
    ([before_phase = 0]) enters only from the second round on.  The
    step delivers [incoming], sweeps the phase, then delivers
    [outgoing]. *)

val total_words : schedule -> int
val message_count : schedule -> int
val redistributions : schedule -> event list
val frontiers : schedule -> event list
val pp : Format.formatter -> schedule -> unit
