(** Read/write mix of a descriptor row (rows may merge R and W sites). *)

type t = { reads : bool; writes : bool }

val of_access : Ir.Types.access -> t
val join : t -> t -> t
val pp : Format.formatter -> t -> unit
