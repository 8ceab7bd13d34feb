(** Descriptor-based static race certification.

    Decides, symbolically, whether the iterations of a candidate
    parallel loop are free of loop-carried dependences - the question
    {!Ir.Autopar} otherwise answers by sampling parameter environments
    and intersecting concrete address sets.  The decision is built
    entirely from the paper's access-descriptor machinery: per-array
    Iteration Descriptors ({!Id}) of the candidate loop give each
    iteration's touched region as [tau_B(i) .. tau_B(i) + span], and
    disjointness across distinct iterations reduces to stride/span/
    offset arithmetic over those rows (the same quantities behind the
    overlap-distance Delta_s test of {!Symmetry}), with
    {!Symbolic.Range} bounding row extents whose offsets still mention
    sequential loop indices.

    The three-valued answer is asymmetric by design:

    - [Proved_independent] is a {e certificate}: no two distinct
      iterations of the loop (within one instance of its enclosing
      loops) can touch a common address with a write involved.  The
      claim rests on {!Symbolic.Probe}'s randomized identity testing,
      so it carries the same vanishingly-small error probability as
      every other identity the analysis trusts - and the differential
      test suite checks it against the dynamic oracle on every sampled
      environment.
    - [Proved_dependent] carries a witness: a pair of descriptor rows
      and an iteration distance at which a written cell is provably
      shared, for {e every} admissible parameter assignment.
    - [Unknown] means the loop is outside the class the certifier can
      decide (non-affine subscripts degraded to whole-array
      descriptors, non-uniform strides, row extents that cannot be
      separated); {!decide} and [LINT-UNCERTIFIED] fall back to the
      sampling oracle.

    Soundness argument (see DESIGN.md, "Static certification"): every
    simplification is one-directional.  Whole-array or non-rectangular
    descriptors, unbounded extents, or failed probes all collapse to
    [Unknown], never to a certificate; dependence witnesses are only
    produced from dense rows whose sequential extent lies entirely
    inside the candidate loop, so a shared cell in the descriptor
    region is a shared cell in one loop instance. *)

type witness = {
  w_array : string;  (** the conflicting array *)
  w_kind : string;  (** [write-write], [write-read] or [read-write] *)
  w_distance : int;  (** iteration distance of the proven conflict *)
  w_note : string;  (** human-readable row/offset evidence *)
}

type verdict =
  | Proved_independent
  | Proved_dependent of witness
  | Unknown of string  (** why the certifier gave up *)

val certify :
  ?ards:Ard.phase Lazy.t ->
  Ir.Types.program -> Ir.Types.phase -> loop_path:int list -> verdict
(** Certify the loop reached by descending [loop_path] (as in
    {!Ir.Autopar.independent}): the loop is re-marked as the phase's
    parallel loop and its cross-iteration dependence structure is
    decided from the per-array Iteration Descriptors of the sites the
    loop encloses.  [ards] are the phase's own descriptors (its entry
    of {!Ard.of_program}): read when [loop_path] is the phase's only
    marked loop, so the candidate is the phase itself; any other
    candidate marking describes its enclosed sites afresh. *)

(** {1 Marking}

    The one answer to "which loop of this phase is parallel?", used by
    [Core.Lint.autopar] (and so by [dsmloc file --autopar]).  The
    certifier's [Proved_independent] and [Proved_dependent] are trusted
    as proofs; the sampling oracle {!Ir.Autopar.sampled} decides only
    loops the certifier leaves [Unknown]. *)

type source = Certified | Sampled  (** which procedure justified a marking *)

type probe = {
  path : int list;
  var : string;  (** loop variable at [path] *)
  verdict : verdict;  (** the certifier's answer, witness included *)
  sampled : bool option;  (** {!Ir.Autopar.sampled} for the same loop *)
}

type decision = {
  phase : Ir.Types.phase;  (** the re-marked phase *)
  chosen : (int list * source) option;
      (** the marked loop and which procedure justified it *)
  probes : probe list;
      (** every loop examined, outermost-first, ending at the chosen one *)
}

val decide :
  envs:Symbolic.Env.t list -> Ir.Types.program -> Ir.Types.phase -> decision
(** Walk the loops outermost-first and mark the first that {!certify}
    proves independent or, when the certifier answers [Unknown], that
    every environment of [envs] samples as independent.  A
    [Proved_dependent] verdict rejects the loop even when sampling
    disagrees.  Every probed loop is also sampled, so a disagreement is
    visible through {!mismatch}.  With no chosen loop every marking of
    the phase is cleared. *)

val mismatch : probe -> bool
(** The certifier and the sampling oracle contradict each other: a
    proved independence some sample refutes, or a proved dependence no
    sample observes. *)

val verdict_to_string : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
