(** Sharded multi-process batch analysis driver.

    A fixed-size pool of [Unix.fork]ed workers drains a work queue held
    by the parent: jobs travel to workers over per-worker pipes as
    length-prefixed [Marshal] frames, results come back the same way.
    The pool provides the three guarantees the batch surface
    ([dsmloc batch], the bench sweep) is built on:

    - {b Crash isolation}: a worker that dies mid-job (signal, [exit],
      stack overflow) or whose job raises an uncaught exception fails
      only that job.  A crashed worker is reaped and replaced by a
      freshly forked one, and the job is retried ([retries] extra
      attempts, default one) before being reported as [Failed]; the
      batch always runs to completion.
    - {b Deterministic output}: results are indexed (and the [stream]
      callback fired) in submission order regardless of completion
      order or worker count.  Each attempt runs under
      [Probe.with_seed] with a seed derived from the job index alone,
      and from a reset metrics registry with flushed memo caches, so a
      job's result does not depend on which worker ran it or what ran
      before it.
    - {b Observability}: every worker serialises its per-job
      {!Metrics} snapshot over the result pipe with the registry's own
      JSON emitter; the parent parses them back ({!Metrics.of_json})
      and folds them with {!Metrics.merge} into the fleet-wide
      snapshot returned beside the outcomes (counter totals equal the
      sum of the per-job snapshots).

    Jobs and results cross an address-space boundary, so both must be
    marshalable: no closures, no custom blocks.  See DESIGN.md
    section 13 for the pipe framing. *)

type 'r outcome =
  | Done of {
      value : 'r;
      attempts : int;  (** 1 unless earlier attempts were lost *)
      lost : string list;
          (** reasons of the failed attempts that preceded success,
              oldest first (empty on a clean first attempt) *)
      metrics : Metrics.snapshot;
          (** the worker's registry deltas for this job *)
    }
  | Failed of {
      attempts : int;
      reasons : string list;  (** one per attempt, oldest first *)
    }

val map :
  ?workers:int ->
  ?retries:int ->
  ?stream:(int -> 'b outcome -> unit) ->
  ?diags:Diag.collector ->
  f:(attempt:int -> 'a -> 'b) ->
  'a list ->
  'b outcome list * Metrics.snapshot
(** [map ~f jobs] analyses every job on a pool of [workers] (default 4,
    clamped to the job count) forked processes and returns the outcomes
    in submission order plus the merged fleet metrics snapshot.

    [f] runs in the worker; [attempt] is 1-based so fault-injection
    hooks can crash a first attempt only.  [retries] is the number of
    extra attempts granted to a job whose attempt crashed or raised
    (default 1: retry once).  A crashed attempt's retry is dispatched
    to the freshly forked replacement worker; an attempt that raised
    (the worker survives) re-enters the queue.

    [stream] is called in the parent, in submission order, as the
    completed prefix grows - the CLI uses it to print reports
    incrementally without ever reordering them.

    Every job starts from a reset worker state (metric cells zeroed,
    artifact stores and the expression intern table dropped, probe
    stream seeded from the job index), so results are byte-identical
    whatever the worker count or scheduling order.

    Pipe I/O is EINTR-safe and the marshal frame length is validated
    against a hard cap before allocating: a worker that emits a corrupt
    or oversized frame is killed and its job fails with a
    [POOL-BAD-FRAME] reason (counted in [pool.bad_frames]) instead of
    raising [Out_of_memory] in the parent.

    A worker whose profile JSON does not parse degrades to an empty
    snapshot for that job: the job's value is kept, the
    [pool.profile_bad] counter is bumped, and - when [diags] is
    supplied - a [POOL-PROFILE-BAD] warning is recorded. *)

(** {2 Frame reader}

    The receiving half of the transport {!map} uses on its pipes: an
    8-byte big-endian length, then that many bytes of [Marshal]
    payload.  Exposed so its hostile-input behaviour can be tested
    directly. *)

val default_frame_cap : int
(** Largest accepted payload length in bytes (256 MiB). *)

val recv : Unix.file_descr -> [ `Frame of 'a | `Bad of string | `Eof ]
(** Read one frame.  A negative or over-cap length prefix, or a payload
    [Marshal] rejects, is [`Bad] (checked before allocating the
    payload); EOF before the frame is complete, including mid-payload,
    is [`Eof].  Like [Marshal.from_bytes], the frame's type is the
    caller's claim. *)
