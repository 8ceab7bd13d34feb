(** Digest-keyed artifact stores.

    One store uses it: [Probe]'s sample banks ([probe.bank]), keyed by
    an assumption set ({!Assume.key}).  A run's other facts - each
    phase's context, descriptors and shape - are derived once per run
    and passed down as values, and evaluations are not cached.  Keys
    are small trees whose leaves are ints, strings and interned
    {!Expr.t} values: equality is structural with O(1) expression
    leaves, hashing reuses the expressions' precomputed digests, and
    therefore a key can never collide with a different key - the
    digest only buckets.

    The cache is a per-run memo (see DESIGN.md section 14).  Stores
    are domain-local: a domain reads and fills only its own tables, and
    a fresh domain starts with empty ones.
    - {!clear_all} drops every store; [Probe.with_seed] calls it on
      entry and exit, so no value derived under one probe seed survives
      into a run under another;
    - every store holds at most 4096 entries; a store that reaches the
      bound is dropped wholesale and refills.

    Each store's hits and misses are the {!Metrics} cache cell of its
    name, which [--profile] and [--profile-json] report. *)

module Key : sig
  type t

  val int : int -> t
  val str : string -> t
  val expr : Expr.t -> t
  val list : t list -> t
end

type 'v store

val store : string -> 'v store
(** Create (and register) a store.  [name] is also the {!Metrics.cache}
    cell receiving hit/miss counts. *)

val find : 'v store -> Key.t -> (unit -> 'v) -> 'v
(** [find s k compute] returns the cached value for [k], or runs
    [compute], stores and returns its result. *)

val clear_all : unit -> unit
(** Flush every store of the calling domain. *)
