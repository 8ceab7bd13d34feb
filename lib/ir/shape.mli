(** Closed-form event shapes of a phase under a concrete environment.

    Where {!Enumerate.iter} replays every iteration of a nest to
    produce its (array, address) events one by one, this module
    extracts the same event multiset {e symbolically}: each reference
    site becomes a [base + par_stride*i + sum_j k_j*s_j] generator
    whose dimension counts and strides are concrete integers, so
    consumers (phase work, liveness, the DSM simulator's accounting)
    can reason about all [n * prod c_j] events in O(sites) time.

    Loop variables whose trip count or subscript coefficient is not
    affine-with-constant-coefficient under the environment (triangular
    bounds, [2^L]-style loop-dependent strides) are {e partially
    evaluated}: their concrete values are enumerated - under a budget -
    and the sites under them are emitted once per value, closing the
    gap between the affine fragment and real kernels at small extents.
    When the parallel variable itself is bad (it bounds an inner loop,
    as in triangular solves), the parallel loop is partially evaluated
    too and each emitted site is pinned to one parallel iteration.

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
}

type t = {
  par_n : int;  (** parallel trip count ([1] when the phase has none) *)
  sites : site list;
}

val of_phase : program -> Env.t -> phase -> t option
(** [None] when the phase is outside the affine fragment under this
    environment (non-affine parallel subscripts, unbounded partial
    evaluation, unevaluable parameters).  Memoized per (phase, env). *)

val events : site -> int
(** Number of events the site generates per parallel iteration it
    occurs in (product of sequential counts, saturating). *)

val emits : t -> site -> bool
(** Does the site generate any event at all? *)

val on_array : t -> string -> site list
(** The sites on one array that {!emits}, in textual order. *)

val box : t -> site -> Lattice.box option
(** The address {e set} the site touches over all its occurrences
    (multiplicity dropped): [None] when it emits nothing.
    @raise Lattice.Overflow *)

val total_work : t -> int
(** Total statement work of the phase, saturating - the closed form of
    summing [work] over {!Enumerate.iter}. *)
