(** Closed-form event shapes of a phase under a concrete environment.

    Where {!Enumerate.iter} replays every iteration of a nest to
    produce its (array, address) events one by one, this module
    extracts the same event multiset {e symbolically}: each reference
    site becomes a [base + par_stride*i + sum_j k_j*s_j] generator
    whose dimension counts and strides are concrete integers, so
    consumers (phase work, liveness, lint's bounds rule, the DSM
    simulator's accounting) can reason about all [n * prod c_j] events
    in O(sites) time.  It is the one closed form of a phase's events.

    Loop variables whose trip count or subscript coefficient is not
    affine-with-constant-coefficient under the environment (triangular
    bounds, [2^L]-style loop-dependent strides) are {e partially
    evaluated}: their concrete values are enumerated - under a budget -
    and the sites under them are emitted once per value, closing the
    gap between the affine fragment and real kernels at small extents.
    When the parallel variable itself is bad (it bounds an inner loop,
    as in triangular solves, or its own bound mentions an outer loop
    variable, as in [do i / doall j = 0, i]), the parallel loop is
    partially evaluated too and each emitted site is pinned to one
    parallel iteration.

    Extraction is exact: the emitted sites denote event-for-event the
    multiset {!Enumerate.iter} produces (same linearization, same
    normalized nest, same work accounting), which the differential
    tests pin. *)

open Symbolic
open Types

type par_shape =
  | Outside  (** the site is outside the parallel loop: [par = None] *)
  | Strided of int
      (** inside, affine: the address advances by this step per
          parallel iteration, for all [par_n] iterations *)
  | Fixed of int
      (** inside a partially-evaluated parallel loop: this site's
          events belong to exactly this parallel iteration *)

type site = {
  array : string;
  access : access;
  work : int;
      (** statement work charged on this site's events ([0] unless the
          site is the first reference of its statement) *)
  base : int;
      (** flat address at parallel iteration 0 ([Strided]) or at the
          pinned iteration ([Fixed]), all sequential indices 0 *)
  par : par_shape;
  seq : (int * int) list;
      (** one [(count, stride)] per enclosing good sequential loop,
          outermost first; zero strides and repeated strides are kept -
          the event multiset has multiplicity *)
  loops : int list;
      (** the loop node each [seq] dimension comes from (its preorder
          position in the normalized nest), parallel to [seq]: two
          sites share a sequential loop when they share an id *)
  run : int list;
      (** the values of the partially evaluated loops that enclose the
          site outside the parallel loop, outermost first: the sites
          of one run of a [Strided] parallel loop share it *)
}

type t = {
  par_n : int;
      (** trip count of the [Strided] parallel loop, read only by
          [Strided] sites ([1] when the phase has none or its parallel
          loop is partially evaluated) *)
  sites : site list;
}

val of_phase : Phase.t -> Env.t -> t option
(** The phase's shape under [env]; [None] when the phase is outside
    the affine fragment there (non-affine parallel subscripts,
    unbounded partial evaluation, unevaluable parameters).  The
    environment-free facts - each site's subscript and steps, the
    loops to partially evaluate ({!Phase.t.bad}) - are the context's;
    only their evaluation is done here.  Nothing is memoized: each
    call derives, and counts once in [shape.derive].  A pipeline run
    derives each phase's shape at its environment once
    ([Locality.Lcg.facts]) and every consumer reads that value. *)

val emits : t -> site -> bool
(** Does the site generate any event at all? *)

val on_array : t -> string -> site list
(** The sites on one array that {!emits}, in textual order. *)

val box : t -> site -> Lattice.box option
(** The address {e set} the site touches over all its occurrences
    (multiplicity dropped): [None] when it emits nothing.
    @raise Lattice.Overflow *)

val ranges : t -> (string * int * int) list option
(** Each array's least and greatest address over the phase, in order
    of first emitting reference: the hull ({!Lattice.bounds}) of its
    site {!box}es.  [None] when a box overflows. *)

val total_work : t -> int
(** Total statement work of the phase, saturating - the closed form of
    summing [work] over {!Enumerate.iter}. *)
