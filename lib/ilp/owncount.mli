(** Closed-form event counting against per-processor address sets.

    One reference site of a phase generates the event multiset
    [{(i, base + par_stride*i + sum_j k_j*s_j)}] over its parallel and
    sequential index space, and the CYCLIC(chunk) schedule executes
    parallel iteration [i] on processor [owner i]
    ({!Distribution.proc_of_iteration}).  This
    module counts, per processor, how many of the site's events land
    inside a given interval set (an ownership set, a ghost-zone family)
    - with multiplicity, in closed form: the parallel range is walked
    per constant-processor chunk run, one [|stride| = 1] sequential
    dimension becomes the contiguous window of {!Lattice.window_hits},
    and the remaining sequential dimensions are enumerated under a
    budget.

    Counts are exact (they must reproduce the enumerating oracle's
    totals event-for-event); [None] means a budget or overflow made the
    closed form unavailable and the caller falls back to enumeration. *)

open Symbolic

val budget : int
(** Default cap on chunk runs, enumerated sequential combinations and
    ownership segments. *)

val intervals_of :
  Lattice.Own.t -> lo:int -> hi:int -> Lattice.Iv.t array option
(** Per-processor ownership interval lists over [lo..hi] under the
    default {!budget}; [None] when empty ranges or the segment walk
    exhausts it. *)

val per_proc :
  chunk:int ->
  owner:(int -> int) ->
  Ir.Shape.t ->
  Ir.Shape.site ->
  sets:Lattice.Iv.t array ->
  (int array * int array) option
(** [per_proc ~chunk ~owner t s ~sets] returns [(events, hits)], walking
    the parallel range in runs of [chunk] iterations over which [owner]
    is constant: [events.(p)] is the number of the site's events
    executed by processor [p] and [hits.(p)] how many of those address
    into [sets.(p)] (one set per processor).  Events outside the
    parallel loop ([Outside]) execute on processor 0, like the
    enumerator's [par = None] convention.  [None] when the chunk-run or
    sequential enumeration exceeds {!budget} or the arithmetic
    overflows. *)
