(** Iteration/data distribution plans derived from a solved model.

    Iterations of phase k are scheduled CYCLIC(p_k): iteration i runs
    on processor [(i / p_k) mod H].  For each array, each {e chain} of
    its LCG (maximal L-connected run) covers one common data region; a
    block-cyclic layout with block [delta_P * p_head] anchored at the
    chain head's base offset keeps the primary accesses of every chain
    phase local.

    Storage symmetry enables two layout refinements, the paper's
    shifted and {e reverse distributions}: a [period] equal to a
    shifted distance maps the +Delta_d copy of every block onto the
    same owner, and a [mirror] of length Delta_r folds the address
    space so symmetric positions [a] and [Delta_r - 1 - a] share an
    owner.  {!of_solution} enumerates the candidate layouts a chain's
    distances suggest and keeps the one with the fewest measured remote
    accesses (exact counting over the chain's phases).

    Between chains (C edges) the array is redistributed; across D edges
    no data movement is needed. *)

type layout = {
  array : string;
  first_phase : int;  (** phase span (inclusive) this layout covers *)
  last_phase : int;
  base : int;  (** anchor address *)
  block : int;  (** block-cyclic block size, >= 1 *)
  period : int option;  (** shifted-distribution copy distance *)
  mirror : int option;  (** reverse-distribution fold length *)
  halo : int;
      (** ghost-zone width replicated around each owned block; reads
          within it are local (Theorem 1c), kept fresh by frontier
          updates after every writing phase *)
}

type plan = {
  h : int;
  chunk : int array;  (** p_k per phase *)
  layouts : layout list;
  privatized : (int * string) list;  (** (phase, array) with attr P *)
}

val proc_of : plan -> layout -> addr:int -> int

val own_of : h:int -> layout -> Symbolic.Lattice.Own.t
(** The layout's address-to-processor map as a {!Symbolic.Lattice.Own}
    piecewise-constant function; {!proc_of} is its
    {!Symbolic.Lattice.Own.owner}. *)

val layout_for : plan -> array:string -> phase_idx:int -> layout option
(** The layout epoch active at the given phase. *)

val placement : plan -> array:string -> phase_idx:int -> layout option
(** Where the array's accesses in that phase go: [None] (every access
    replica-local) when the array is privatized there, otherwise
    {!layout_for}. *)

(** {1 Ownership decisions}

    The one definition the simulator, validator, executor and generated
    code all ask. *)

val proc_of_iteration : chunk:int -> h:int -> int -> int
(** CYCLIC(p): parallel iteration [i] runs on [(i / max 1 p) mod h]. *)

val halo_window : layout -> int
(** [min halo block]: ghost cells on each side of an owned block. *)

val fully_replicated : layout -> size_of:(string -> int option) -> bool
(** [halo >= size] (an unknown size never is). *)

val read_is_local :
  plan -> layout -> size_of:(string -> int option) -> proc:int -> addr:int -> bool
(** Owned, within {!halo_window} of an owned block, or
    {!fully_replicated}; [size_of] is asked only for an unowned read of
    a halo'd layout. *)

(** {1 The per-processor tally}

    How many of each processor's accesses are local (the paper's
    Sec. 4.3 criterion) is asked in one place: the simulator prices a
    phase with it, and {!of_solution} scores candidate layouts and ghost
    zones with it.  A tally counts one phase under CYCLIC(chunk)
    iteration scheduling, per {e placement} [(array, layout option)];
    [None] places the array nowhere (privatized or undistributed), so
    every access to it is owned.  Each consumer picks between the two
    twins itself with {!Symbolic.Lattice.closed_or_enumerate}, so each
    keeps its own unit of fallback. *)

type tally = { reads : Owncount.counts; writes : Owncount.counts }
(** Per processor: the accesses executed, those addressing an owned
    cell, the ghost hits (reads within {!halo_window} of an owned block
    but outside it; 0 for writes and without a halo) and the statement
    work charged on them. *)

val tally_symbolic :
  ?split:bool ->
  Locality.Lcg.t ->
  Ir.Types.phase ->
  chunk:int ->
  h:int ->
  (string * layout option) list ->
  tally array option
(** One tally per placement, in order, counted by rotation class
    ({!Owncount.per_proc}) against ownership sets built over one chunk
    run's hull per class; all arithmetic is overflow-checked.  With
    [~split:false] every count has a single slot holding the
    machine-wide total - all the layout scoring of {!of_solution}
    reads, at a cost that does not grow with [h].  [None] when the
    phase leaves the affine fragment, a budget is exhausted or a count
    overflows. *)

val tally_enum :
  Locality.Lcg.t ->
  Ir.Types.phase ->
  chunk:int ->
  h:int ->
  (string * layout option) list ->
  tally array
(** The same tallies by enumerating every access. *)

val phase_writes_symbolic :
  Locality.Lcg.t -> Ir.Types.phase -> string list option
(** The arrays a phase writes (with at least one event), sorted; [None]
    outside the affine fragment. *)

val phase_writes_enum : Locality.Lcg.t -> Ir.Types.phase -> string list
(** The same set by enumeration. *)

val of_solution : Locality.Lcg.t -> p:int array -> plan

val block_plan : Locality.Lcg.t -> plan
(** The naive baseline: BLOCK layout of every array over the whole
    program, BLOCK iteration scheduling (chunk = ceil(n/H)); what an
    owner-computes compiler does without locality analysis. *)

val pp : Format.formatter -> plan -> unit
