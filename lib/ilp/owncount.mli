(** Closed-form event counting against per-processor address sets.

    One reference site of a phase generates the event multiset
    [{(i, base + par_stride*i + sum_j k_j*s_j)}] over its parallel and
    sequential index space, and the CYCLIC(chunk) schedule executes
    parallel iteration [i] on processor {!proc_of_iteration}[ i].  This
    module counts, per processor, how many of the site's events land
    inside that processor's ownership set and its ghost zone - with
    multiplicity, in closed form: the parallel range splits into
    constant-processor chunk runs, one [|stride| = 1] sequential
    dimension becomes the contiguous window of {!Lattice.window_hits},
    and the remaining sequential dimensions are enumerated under a
    budget.

    Runs are counted by {e rotation class}.  On a layout with no period
    and no mirror, moving an address up one block moves its owner up
    one processor, so two runs of a site with the same length whose
    starts sit at the same offset from their own processors' blocks
    (modulo [block * h]) hit their own sets alike, as long as no
    address of either, less the halo window, falls below the layout's
    base.  The window sums are evaluated once per class and added to
    each run's processor; under the balanced-locality condition a
    site's interior runs all share one class, so the number of window
    sums no longer grows with [h].  Other runs, and every run on a
    periodic or mirrored layout, are classes of their own.

    Ownership sets are built per processor, on first use, by
    {!Lattice.Own.set}, and ghost zones only for the processors a class
    asks about.  Counts are exact: they must reproduce the enumerating
    oracle's totals event-for-event. *)

open Symbolic

val budget : int
(** Cap on chunk runs, enumerated sequential combinations, and the
    intervals of one processor's ownership set. *)

type sets
(** One layout's per-processor ownership sets and ghost zones over an
    address range, built on demand and kept for the life of the
    value. *)

val sets : Lattice.Own.t -> window:int -> lo:int -> hi:int -> sets
(** The sets of a layout for events in [lo..hi], with halo window
    [window] (the ghost zone of a processor is the addresses within
    [window] of its set, less the set). *)

val proc_of_iteration : chunk:int -> h:int -> int -> int
(** [i / max 1 chunk mod h]: consecutive chunk runs go to consecutive
    processors ({!Distribution.proc_of_iteration} is this function). *)

type counts = {
  events : int array;  (** per processor: events executed *)
  owned : int array;  (** ... addressing its ownership set *)
  ghost : int array;  (** ... addressing its ghost zone *)
  work : int array;  (** ... statement work charged on them *)
}
(** Arrays of [h] slots, one per processor, or of a single slot that
    receives the machine-wide totals: a class's hits then go in once,
    times its run count, whatever [h] is. *)

val per_proc :
  chunk:int ->
  h:int ->
  Ir.Shape.t ->
  Ir.Shape.site ->
  owned:sets option ->
  ghost:bool ->
  counts ->
  bool
(** Adds the site's events to the counts: with [owned = None] every
    event counts as owned; the ghost count is touched only with
    [ghost] and a layout.  Events outside the parallel loop
    ([Outside]) execute on processor 0, like the enumerator's
    [par = None] convention.  [false] (with the counts partly updated)
    when the chunk-run or sequential enumeration or an ownership set
    exceeds {!budget}, or the arithmetic overflows.  Every window-sum
    evaluation ticks the [tally.windows] counter. *)
