(** Metrics registry: named counters, wall-clock timers and cache
    (memo-table) statistics.

    Cells are interned by name on first use, from any domain, and
    survive {!reset} (which only zeroes their numbers), so modules may
    safely capture handles at initialization time.  The cells are
    process-wide; their numbers are domain-local: every domain counts
    into its own copy, a fresh domain starts at zero, and {!reset},
    {!snapshot} and {!absorb} act on the calling domain's numbers.  Timers use the monotonic-enough
    [Unix.gettimeofday] and are reentrancy-safe: a recursive entry is
    counted as a call but only the outermost frame accumulates wall
    time, so nested or recursive kernels never double-bill.

    The registry deliberately has no dependencies beyond [unix] so every
    layer of the pipeline - [Symbolic.Expr] normalization at the bottom,
    [Core.Pipeline] stages at the top - can report into the same table.
    Three cache cells exist: [expr.intern] ({!Expr}'s intern table),
    [probe.bank] and [probe.column] ({!Probe}'s sample banks and their
    operand columns). *)

type counter
type timer
type cache

val counter : string -> counter
(** Intern (find or create) the counter cell of that name. *)

val timer : string -> timer
val cache : string -> cache

val incr : ?by:int -> counter -> unit

val now : unit -> float
(** [Unix.gettimeofday], exposed so drivers use the same clock. *)

val with_timer : timer -> (unit -> 'a) -> 'a
(** Run the thunk, adding its wall time to the cell.  Exceptions
    propagate (the elapsed time is still recorded). *)

(** {2 Domain-local handles}

    A cell's numbers on the domain that took the handle.  A hot path
    keeps one in its own domain-local state, or for the length of one
    query, and counts through it without looking its domain up again.
    A handle must not count on another domain. *)

type local

val local_counter : counter -> local
val local_cache : cache -> local
val incr_local : local -> unit
val hit_local : local -> unit
val miss_local : local -> unit

val reset : unit -> unit
(** Zero the calling domain's numbers, keeping registrations. *)

type snapshot = {
  counters : (string * int) list;
  timers : (string * (int * float)) list;  (** calls, seconds *)
  caches : (string * (int * int)) list;  (** hits, misses *)
}

val snapshot : unit -> snapshot
(** Every registered cell, in creation order, with the calling
    domain's numbers. *)

val merge : snapshot -> snapshot -> snapshot
(** Fleet-wide aggregation: counter values, timer calls/seconds and
    cache hits/misses add.  Cell order follows the first
    snapshot, then any names only the second contains.  Used by the
    batch driver to fold per-job snapshots into one view. *)

val absorb : snapshot -> unit
(** Add a snapshot's numbers into the calling domain's (creating cells
    as needed), so the [--profile]/[--profile-json] report of a batch
    includes its jobs' merged numbers alongside its own. *)

val pp_table : Format.formatter -> snapshot -> unit
(** Human-readable table (the [--profile] stderr output) of the cells
    the run touched: timers with calls, caches with lookups and nonzero
    counters.  Untouched cells stay in {!snapshot} and {!to_json}. *)

val to_json : snapshot -> string
(** Machine-readable snapshot:
    [{"timers":{name:{"calls":n,"seconds":s}},
      "caches":{name:{"hits":h,"misses":m,"hit_rate":r}},
      "counters":{name:v}}]. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (exposed for
    the drivers that compose larger JSON documents around snapshots). *)

val json_float : float -> string
(** Render a float as a JSON number ([null] for NaN/infinities). *)
