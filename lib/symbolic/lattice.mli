(** Exact integer set algebra over stride-span boxes.

    This is the closed-form core of the symbolic locality analysis: a
    {e box} is the set of addresses [{base + sum_j k_j*s_j : 0 <= k_j <
    c_j}] generated by a list of [(count, stride)] dimensions - exactly
    the footprint shape an Access Region Descriptor row denotes once
    its offset and strides evaluate to integers.  The module answers
    the questions the pipeline used to answer by enumerating addresses
    (cardinality, bounds, membership, pairwise overlap, union volume,
    intersection with processor ownership sets) in closed form, in time
    independent of the extents.

    Soundness discipline: every predicate returns a three-valued
    {!verdict} ([Yes]/[No]/[Unknown]) or an [option]; [Unknown]/[None]
    means the descriptor falls outside the {e closed-form fragment}
    (see DESIGN.md section 16) and the caller must fall back to its
    conservative path.  Answers other than [Unknown] are exact, never
    heuristic.  All arithmetic is overflow-checked ({!Safe}): rather
    than wrap silently near [2^62], operations raise {!Overflow}, which
    the fragment tests convert into [Unknown]/[None].  Event {e counts}
    (as opposed to verdicts) may instead use the saturating variants,
    which clamp at [max_int] - the simulator treats such totals as
    "at least this much", which only ever overestimates cost.

    The module lives in the [symbolic] layer (below [ir] and
    [descriptor]) so that descriptor extraction, the simulator and the
    race certifier can all share one algebra. *)

type verdict = Yes | No | Unknown

val verdict_and : verdict -> verdict -> verdict
(** Conjunction: [No] dominates, then [Unknown], then [Yes]. *)

exception Overflow
(** Raised by {!Safe} checked arithmetic (and by constructors built on
    it) when a result would exceed native [int] range. *)

(** Overflow-checked and saturating integer arithmetic.  The checked
    operations use the same product/sign guards as [Qnum]'s internal
    [mul_int]/[add_int] (PR 4): a multiplication is validated by
    dividing back, an addition by the sign of the result. *)
module Safe : sig
  val add : int -> int -> int
  (** @raise Overflow when the exact sum is unrepresentable. *)

  val mul : int -> int -> int
  (** @raise Overflow when the exact product is unrepresentable. *)

  val add_sat : int -> int -> int
  (** Saturating sum: clamps to [max_int]/[min_int] instead of raising. *)

  val mul_sat : int -> int -> int
  (** Saturating product. *)
end

val gcd : int -> int -> int
(** Non-negative gcd; [gcd 0 0 = 0]. *)

val egcd : int -> int -> int * int * int
(** [egcd a b = (g, x, y)] with [a x + b y = g]; [g = gcd a b] when
    [a, b >= 0]. *)

val fdiv : int -> int -> int
(** Floor of [a / b], for a divisor of either sign. *)

val cdiv : int -> int -> int
(** Ceiling of [a / b], for a divisor of either sign. *)

(** {1 Stride-span boxes} *)

type box
(** A non-empty finite set [{base + sum_j k_j*s_j : 0 <= k_j < c_j}],
    kept in normal form: strides positive (negative input strides are
    folded into the base), ascending, duplicates merged, and any
    dense prefix collapsed into a single stride-1 dimension.  The
    normal form is set-equal to the input generator set; generator
    multiplicity is deliberately forgotten (a box is a set, not a
    multiset of events). *)

val make : base:int -> (int * int) list -> box option
(** [make ~base dims] with [(count, stride)] dimensions.  [None] when
    some count is [<= 0] (the empty set).  Zero strides and unit counts
    are dropped (they do not change the set).
    @raise Overflow when normalization overflows. *)

val point : int -> box
(** The singleton set. *)

val base : box -> int

val dims : box -> (int * int) list
(** Normalized [(count, stride)] dimensions, strides ascending. *)

val lo : box -> int
val hi : box -> int
(** Inclusive hull bounds; exact (both are members). *)

val shift : box -> int -> box
(** Translate every element. @raise Overflow. *)

val card : box -> int option
(** Exact cardinality, or [None] when the stride structure is outside
    the fragment (overlapping, non-nested strides). *)

val interval : box -> (int * int) option
(** [Some (lo, hi)] exactly when the box is the full integer interval. *)

val mem : box -> int -> verdict
(** Exact membership when the stride structure is positional
    (nested-distinct); [Unknown] otherwise. *)

val subset : box -> box -> verdict
(** [subset a b]: is every element of [a] in [b]? *)

val disjoint : box -> box -> verdict
(** Complete for interval pairs, identical stride vectors with
    combined-nested structure, gcd-separated lattices, and hull-
    separated pairs; [Unknown] otherwise. *)

val union_card : box list -> int option
(** Exact cardinality of the union.  Closed form when all members are
    intervals, or when they share a common positional stride basis (at
    most four distinct strides: the digit-space rectangle union costs
    exponentially in their number) - e.g. the rows of a stencil
    descriptor.  [None] outside the fragment. *)

val test_card_skew : unit -> int ref
(** The calling domain's fault-injection cell, copied from its
    parent's when a domain is spawned.  For the fuzz harness's
    self-test: when nonzero, every exact nonzero {!union_card} answer
    is inflated by this amount.  Only the closed-form accounting path
    consults [union_card] (the enumeration oracle counts addresses
    directly), so a nonzero skew is precisely a descriptor-algebra bug
    the symbolic-vs-enumerated differential must catch.  Default 0. *)

val bounds : box list -> (int * int) option
(** Hull of a union: [None] on the empty list; always exact. *)

(** {1 Interval lists}

    Finite unions of inclusive integer intervals in normal form
    (sorted, disjoint, non-adjacent) - the algebra of halo families,
    and, packed into flat arrays, the representation of per-processor
    ownership sets. *)
module Iv : sig
  type t = (int * int) list

  val norm : (int * int) list -> t
  (** Sorts, drops empty intervals, merges overlap and adjacency. *)

  val union : t -> t -> t
  val inter : t -> t -> t
  val subtract : t -> t -> t
  val shift : t -> int -> t
  val clamp : t -> lo:int -> hi:int -> t
  val total : t -> int
  (** Number of addresses covered. @raise Overflow. *)

  val is_empty : t -> bool
  val mem : t -> int -> bool

  type packed = int array
  (** An interval list flattened into one array,
      [[|lo0; hi0; lo1; hi1; ...|]], ascending and disjoint (adjacent
      intervals allowed): the layout {!Own.set} fills and
      {!window_hits} binary-searches. *)

  val pack : t -> packed
  (** Flattens a list in normal form. *)

  val unpack : packed -> t
end

(** {1 Ownership sets}

    The address-to-processor map of a distribution layout - BLOCK,
    CYCLIC and BLOCK-CYCLIC with the optional period/mirror folding of
    [Ilp.Distribution] - as a piecewise-constant function.  {!owner_at}
    is the one owner map, [Distribution.proc_of] included: the
    negative-relative clamp, period wrap and mirror fold.  {!set}
    builds one processor's packed interval array over a bounded
    address range without visiting individual addresses or other
    processors' blocks. *)
module Own : sig
  type t = {
    h : int;  (** processor count, [>= 1] *)
    base : int;  (** distribution origin *)
    block : int;  (** block width, [>= 1] *)
    period : int option;  (** wrap [rel] modulo this when positive *)
    mirror : int option;  (** fold [rel < m] to [min rel (m-1-rel)] *)
  }

  val owner_at :
    h:int -> base:int -> block:int -> period:int option -> mirror:int option -> int -> int
  (** Owner of one address under the fields of {!t}, passed one by one
      so that a caller holding them elsewhere (a distribution layout)
      allocates nothing. *)

  val owner : t -> int -> int
  (** {!owner_at} on [t]'s fields. *)

  val segments :
    t -> t -> lo:int -> hi:int -> (int -> int -> int -> int -> unit) -> unit
  (** [segments a b ~lo ~hi f] calls [f x e p q] on each segment
      [x..e] of [lo..hi], in ascending order, on which [a]'s owner is
      [p] and [b]'s owner is [q] throughout: the refinement of the two
      maps' constant-owner runs (adjacent segments may share both
      owners).  There are never more segments than addresses, so the
      walk needs no budget. *)

  val set : t -> p:int -> lo:int -> hi:int -> budget:int -> Iv.packed option
  (** Processor [p]'s addresses in [lo..hi], as a packed array
      [[|lo0; hi0; lo1; hi1; ...|]] of ascending, disjoint,
      non-adjacent intervals, in closed form: the blocks of the fold
      coordinate that [p] owns, read through the mirror and repeated
      per period cell, plus everything below [base] for processor 0.
      The cost is that of the intervals produced, whatever the other
      processors own.  [None] when the set needs more than [budget]
      intervals.  Over [p = 0 .. h-1] the sets partition [lo..hi]. *)
end

val window_hits : a:int -> d:int -> n:int -> len:int -> Iv.packed -> int
(** [window_hits ~a ~d ~n ~len set]: the number of (index, address)
    pairs [(i, x)] with [0 <= i < n], [x] in [[a+i*d, a+i*d+len-1]] and
    [x] in [set] - i.e. the total events an arithmetic progression of
    contiguous windows lands inside the set, counted with multiplicity
    across indices.  Closed form per interval of [set] (arithmetic-
    series sums over the ascending / plateau / descending overlap
    regions), summed only over the intervals that meet the
    progression's hull [[min(a, a+(n-1)d), max(a, a+(n-1)d) + len - 1]]:
    a binary search finds the first, so the cost is O(log |set| + k)
    for [k] intervals meeting the hull, independent of [n] and [len].
    Saturating: clamps at [max_int] instead of raising. *)

(** {1 Mode and fallback accounting} *)

type mode = Auto | Symbolic_only | Enumerated_only

val mode_cell : unit -> mode ref
(** The calling domain's mode, copied from its parent's when a domain
    is spawned.  [Auto] (default): closed-form answers with counted
    conservative fallbacks.  [Symbolic_only]: a fallback raises
    {!Outside_fragment} instead (CI uses this to prove kernels stay
    in-fragment).  [Enumerated_only]: consumers keep their historical
    enumerating path - the differential oracle. *)

val mode : mode ref
(** The main domain's {!mode_cell}, for drivers that run there. *)

exception Outside_fragment of string
(** Raised by {!closed_or_enumerate} under [Symbolic_only]. *)

val closed_or_enumerate :
  stage:string ->
  reason:(unit -> string) ->
  symbolic:(unit -> 'a option) ->
  enum:(unit -> 'a) ->
  'a
(** The one closed-form-or-enumerate dispatch: [enum ()] under
    [Enumerated_only]; otherwise [symbolic ()].  On [None] the consumer
    left the closed-form fragment: the [symbolic.fallback] {!Metrics}
    counter and a per-stage [symbolic.fallback.<stage>] counter are
    incremented, then {!Outside_fragment} is raised under
    [Symbolic_only] (naming [stage] and [reason ()], built only then)
    and [enum ()] answers otherwise.  The [stage] is a short stable tag
    (e.g. ["lcg-halo"]). *)

val fallback_count : unit -> int
(** Fallbacks noted on the calling domain since it started.  Unlike
    the [symbolic.fallback] counter, {!Metrics.reset} leaves it. *)
