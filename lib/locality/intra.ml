open Descriptor

type case = Privatizable | No_overlap | Overlap_read_only | Fails

type verdict = { local : bool; case : case }

let check ~(sym : Symmetry.t) ~attr =
  match attr with
  | Ir.Liveness.P -> { local = true; case = Privatizable }
  | _ ->
      if sym.overlap = Symmetry.No_overlap then
        { local = true; case = No_overlap }
      else if not sym.write_overlap then
        (* the shared cells are only read: replicate them (Theorem 1c) *)
        { local = true; case = Overlap_read_only }
      else { local = false; case = Fails }

let case_to_string = function
  | Privatizable -> "privatizable"
  | No_overlap -> "no-overlap"
  | Overlap_read_only -> "overlap-read-only"
  | Fails -> "fails"
