(** Closed-form event counting against per-processor address sets.

    One reference site of a phase generates the event multiset
    [{(i, base + par_stride*i + sum_j k_j*s_j)}] over its parallel and
    sequential index space, and the CYCLIC(chunk) schedule executes
    parallel iteration [i] on processor [owner i]
    ({!Distribution.proc_of_iteration}).  This module counts, per
    processor, how many of the site's events land inside given
    packed interval sets ({!Lattice.Iv.packed}: an ownership set, a
    ghost-zone family) - with multiplicity, in closed form: the
    parallel range is walked per constant-processor chunk run, one
    [|stride| = 1] sequential dimension becomes the contiguous window
    of {!Lattice.window_hits}, and the remaining sequential dimensions
    are enumerated under a budget.  Each window sum binary-searches
    the processor's set and visits only the intervals the run's hull
    meets, so a chunk run costs O(log |set| + intervals met) per
    sequential offset rather than a scan of the whole set.  Counts are
    exact: they must reproduce the enumerating oracle's totals
    event-for-event. *)

open Symbolic

val budget : int
(** Default cap on chunk runs, enumerated sequential combinations and
    ownership segments. *)

val intervals_of :
  Lattice.Own.t -> lo:int -> hi:int -> Lattice.Iv.packed array option
(** Per-processor packed ownership sets over [lo..hi]
    ({!Lattice.Own.intervals}) under the default {!budget}; [None] when
    the range is empty or the segment walk exhausts it. *)

type counts = {
  events : int array;  (** per processor: events executed *)
  owned : int array;  (** ... addressing its [owned] set *)
  ghost : int array;  (** ... addressing its [ghost] set *)
  work : int array;  (** ... statement work charged on them *)
}

val per_proc :
  chunk:int ->
  owner:(int -> int) ->
  Ir.Shape.t ->
  Ir.Shape.site ->
  owned:Lattice.Iv.packed array option ->
  ghost:Lattice.Iv.packed array option ->
  counts ->
  bool
(** Adds the site's events to the counts: with [owned = None] every
    event counts as owned, with [ghost = None] the ghost count is not
    touched.  Events outside the parallel loop ([Outside]) execute on
    processor 0, like the enumerator's [par = None] convention.
    [false] (with the counts partly updated) when the chunk-run or
    sequential enumeration exceeds {!budget} or the arithmetic
    overflows. *)
