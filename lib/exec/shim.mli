(** The shared-window shim the executor runs against.

    Each array gets one {!window} replica per processor (a float64
    [Bigarray], outside the OCaml heap, so domains read and write
    concurrently without touching the GC).  Scheduled communication is
    {!deliver}: a put-style range copy from the source processor's
    replica into the destination's, attributed to the source's traffic
    counters - the executable analogue of the simulator's priced
    message events. *)

type window = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type counters = {
  mutable sched_msgs : int;  (** scheduled messages sent *)
  mutable sched_words : int;  (** words in scheduled messages *)
  mutable gets : int;  (** direct remote reads served by an owner *)
  mutable puts : int;  (** direct write-throughs to an owner *)
  mutable local : int;  (** replica-local accesses *)
  mutable checked : int;  (** reads paired with a replayed value *)
  mutable busy : float;  (** seconds spent inside phase sweeps *)
}

type t = {
  h : int;
  replicas : (string, window array) Hashtbl.t;
  counters : counters array;  (** one record per domain *)
}

val counters : unit -> counters
(** All zero. *)

val create : h:int -> (string * int) list -> t
(** [create ~h sizes] allocates [h] zero-filled replicas per named
    array (size clamped to at least one cell). *)

val window : t -> proc:int -> array:string -> window

val deliver : t -> array:string -> Dsmsim.Comm.message -> unit
(** Copy the message's ranges src-replica to dst-replica, block by
    block of each progression, and charge the source's
    [sched_msgs]/[sched_words].  Call only between phase
    sweeps (all domains parked at the barrier). *)

(** Reusable sense-reversing barrier over [Mutex]/[Condition]. *)
module Barrier : sig
  type t

  val create : int -> t
  (** Barrier for [n] participants. *)

  val await : t -> unit

  val poison : t -> unit
  (** Unblock every current and future {!await} - the error escape
      hatch when a participant dies mid-sweep. *)
end
