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

    Runs are counted by {e rotation class}.  Above the layout's base
    the owner map is [fold / block mod h], and the fold is monotone on
    pieces: one unbounded ascending piece on a plain layout; per period
    cell, an ascending half, a descending half under the mirror and an
    ascending rest on a periodic or mirrored one.  Two runs of a site
    whose hulls (widened by the halo window when ghosts are counted)
    each lie inside a piece hit their own processors' sets alike when
    they have the same length, the same piece direction, and starts at
    the same offset from their own processors' blocks in the fold
    extended along the piece (modulo [block * h]).  The runs that fit a
    piece are one contiguous range, found by one division; the window
    sums are evaluated once per class and added to each run's
    processor, so under the balanced-locality condition the number of
    window sums does not grow with [h], and grows with the extent only
    through the runs that straddle a piece boundary.  Those runs, and
    the runs below the base, are classes of their own.

    Each evaluation builds the processor's ownership set
    ({!Lattice.Own.set}), and its ghost zone, over that run's hull only.
    Counts are exact: they must reproduce the enumerating oracle's
    totals event-for-event. *)

open Symbolic

val budget : int
(** Cap on chunk runs, enumerated sequential combinations, and the
    intervals of one processor's ownership set. *)

val proc_of_iteration : chunk:int -> h:int -> int -> int
(** [floor (i / max 1 chunk)] modulo [h], in [0..h-1] for every [i]:
    consecutive chunk runs go to consecutive processors
    ({!Distribution.proc_of_iteration} is this function). *)

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
  own:Lattice.Own.t option ->
  window:int ->
  counts ->
  bool
(** Adds the site's events to the counts: with [own = None] every event
    counts as owned; the ghost count (the addresses within [window] of
    a processor's set, less the set) is touched only with
    [window > 0] and a layout.  Events outside the parallel loop
    ([Outside]) execute on processor 0, like the enumerator's
    [par = None] convention.  [false] (with the counts partly updated)
    when the chunk-run or sequential enumeration or an ownership set
    exceeds {!budget}, or the arithmetic overflows.  Every window-sum
    evaluation ticks the [tally.windows] counter, and every run counted
    alone (below the base, or on no one piece) the [tally.alone]
    counter. *)
