(** Independent analysis jobs on domains: the driver behind
    [dsmloc batch] and the fuzz campaign.

    The analysis state of [lib/symbolic] is domain-local (metric
    numbers, the probe's sample banks, the expression intern table,
    the probe stream), and everything else a run derives is a
    value it owns, so each job runs on a domain spawned for it and
    starts from fresh state.  It inherits the caller's
    {!Symbolic.Lattice.mode_cell} and {!Symbolic.Lattice.test_card_skew}
    and runs under [Probe.with_seed] seeded from its index alone, so a
    job's result and metrics do not depend on the worker count or on
    what ran before it.

    A job that raises fails alone, and is not retried: the same job
    raises the same way again.  Domains share the process, so a job
    that exits the process or exhausts its memory ends the whole run.

    See DESIGN.md section 13. *)

type 'r outcome =
  | Done of {
      value : 'r;
      metrics : Symbolic.Metrics.snapshot;  (** the job domain's numbers *)
    }
  | Failed of string  (** the exception the job raised, printed *)

val max_domains : int
(** 128: how many domains OCaml 5.1 keeps alive at once, the calling
    one included. *)

val map :
  ?workers:int ->
  ?stream:(int -> 'b outcome -> unit) ->
  f:('a -> 'b) ->
  'a list ->
  'b outcome list * Symbolic.Metrics.snapshot
(** [map ~f jobs] runs [f] on every job, each on a new domain, with at
    most [workers] (default 4, clamped to the job count and to
    [Domain.recommended_domain_count ()]) job domains alive at once.  It returns the outcomes in submission order and the
    merge of the [Done] jobs' snapshots.  [stream] is called on the
    calling domain, in submission order, as the completed prefix grows. *)
