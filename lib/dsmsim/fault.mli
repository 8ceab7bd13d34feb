(** Seeded, deterministic fault injection for communication schedules.

    Perturbs a {!Comm.schedule} the way a lossy interconnect would:
    each message is independently {e dropped} (never arrives),
    {e duplicated} (arrives twice - benign for correctness, priced by
    the simulator), or {e truncated} (arrives without its tail cells),
    with configurable per-message rates driven by a private PRNG seeded
    from [spec.seed] - the same spec on the same schedule always yields
    the same corruption, so failing runs replay exactly.

    A bounded retry discipline can be layered on top: a dropped or
    truncated message is retransmitted up to [retries] times (each
    resend faces the same fault rates), and {!Exec} charges each
    attempt an exponential-backoff startup penalty.  Corruption that
    survives the retry budget is reported in {!stats} and is what
    [Exec.Validate] provably flags as stale reads. *)

type spec = {
  seed : int;
  drop : float;  (** per-message loss probability in [0,1] *)
  dup : float;  (** per-message duplication probability *)
  trunc : float;  (** per-message truncation probability *)
}

val spec : ?drop:float -> ?dup:float -> ?trunc:float -> seed:int -> unit -> spec
(** All rates default to 0; rates are clamped to [0,1]. *)

val parse : string -> (spec, string) result
(** Accepts [SEED:RATE] (drop-only) or [SEED:DROP:DUP:TRUNC]. *)

val to_string : spec -> string

type retry = {
  src : int;
  dst : int;
  words : int;  (** words of the original (intact) message *)
  attempts : int;  (** resends performed (1..retries) *)
  recovered : bool;  (** false when the retry budget was exhausted *)
}

type stats = {
  messages : int;  (** messages in the original schedule *)
  dropped : int;  (** lost for good (after retries, if any) *)
  duplicated : int;
  truncated : int;  (** delivered with missing tail, for good *)
  recovered : int;  (** faulted messages made whole by a resend *)
  retries : retry list;  (** one record per faulted message that was retried *)
}

val total_attempts : stats -> int
(** Total resend attempts across all retried messages. *)

val unrecovered : stats -> int
(** [dropped + truncated]: corruption that survived the retry budget. *)

val apply : spec -> ?retries:int -> Comm.schedule -> Comm.schedule * stats
(** The delivered schedule: dropped messages removed, duplicated ones
    repeated, truncated ones shortened to their first half (a one-word
    message truncates to a drop); [retries] (default 0) bounds the
    resends granted to each dropped/truncated message.  Events whose
    messages all vanish are removed entirely. *)
