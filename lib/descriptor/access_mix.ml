type t = { reads : bool; writes : bool }

let of_access = function
  | Ir.Types.Read -> { reads = true; writes = false }
  | Ir.Types.Write -> { reads = false; writes = true }

let join a b = { reads = a.reads || b.reads; writes = a.writes || b.writes }

let pp ppf t =
  Format.pp_print_string ppf
    (match (t.reads, t.writes) with
    | true, true -> "RW"
    | true, false -> "R"
    | false, true -> "W"
    | false, false -> "-")
