(** The mass differential-fuzzing campaign behind [dsmloc fuzz].

    Generated programs are dispatched in deterministic submission order
    through {!Core.Jobs.map} - each battery runs on a domain of its own,
    from fresh analysis state - in bounded chunks so a wall-clock cap
    can stop between chunks.  Every 25th program after the first uses
    the deep profile {!Gen.deep}.  At most 31 batteries run at once,
    since each may run the executor on {!Differ.h} domains.  The
    campaign then:

    - re-runs the first 8 finished programs on a single worker and
      compares the verdict vectors structurally (the 1-vs-N worker
      determinism differential);
    - reproduces every failing index in-process, shrinks it with
      {!Shrink} under the finding's own check as the keep predicate,
      and writes a [fuzz_<check>_s<seed>_<index>.dsm] reproducer plus a
      [.golden] snapshot of the verdict into [out_dir];
    - converts a battery that raised, and failures that do not
      reproduce, into findings of their own rather than dropping them.

    [skew] is set as the calling domain's
    {!Symbolic.Lattice.test_card_skew} for the whole campaign: every job
    domain inherits it, and in-process reproduction runs under it, so
    the deliberately injected descriptor-algebra mutation exercises the
    whole detect-shrink-write path as a self-test. *)

type config = {
  count : int;  (** programs to generate *)
  seed : int;  (** campaign seed; program i is [Gen.program ~seed ~index:i] *)
  jobs : int;  (** batteries run at once, each on a domain *)
  wall_cap : float;  (** seconds; 0 = uncapped.  Checked between chunks. *)
  out_dir : string;  (** where reproducers and goldens are written *)
  skew : int;  (** injected {!Symbolic.Lattice.test_card_skew} *)
}

type finding = {
  f_index : int;  (** generation index, -1 for campaign-level findings *)
  f_profile : string;  (** ["default"] | ["deep"] | ["campaign"] *)
  f_check : string;  (** failing check, or ["job-failed"] / ["determinism"] *)
  f_detail : string;
  f_source : string;  (** unshrunk source ([""] for campaign-level) *)
  f_shrunk : string option;  (** minimized source, when shrinking succeeded *)
  f_repro : string option;  (** path of the written reproducer *)
}

type stats = {
  s_ran : int;  (** battery runs that finished *)
  s_findings : finding list;  (** in index order *)
  s_wall_capped : bool;  (** true when the cap stopped the campaign early *)
}

val run : ?log:(string -> unit) -> config -> stats
(** Execute the campaign.  [log] receives one-line progress messages
    (chunk boundaries, findings, reproducer paths).  Never raises on
    differential findings - they are data; file-system errors writing
    reproducers do raise. *)
