open Descriptor
open Ir.Liveness

let derive ak ag ~overlap ~balanced : Table1.label =
  match (ak, ag) with
  | W, P -> if overlap then C else D
  | P, _ | _, P -> D
  | W, _ -> if overlap then C else if balanced then L else C
  | (R | RW), _ -> if balanced then L else C

type input = {
  attr_k : attr;
  attr_g : attr;
  id_k : Id.t;
  id_g : Id.t;
  sym_k : Symmetry.t;
  sym_g : Symmetry.t;
  nk : int;
  ng : int;
}

type result = {
  label : Table1.label;
  solution : Balance.solution option;
  relation : Balance.relation option;
}

let label ~env ~h (inp : input) : result =
  let any (s : Symmetry.t) = s.overlap <> Symmetry.No_overlap in
  (* Table 1's overlap column concerns replicated cells that phase F_k
     WRITES (those force frontier flushes); read-only sharing is served
     by ghost replication. *)
  let overlap = inp.sym_k.write_overlap in
  let relation =
    Balance.relation ~overlap_k:(any inp.sym_k) ~overlap_g:(any inp.sym_g)
      inp.id_k inp.id_g
  in
  let solution =
    Option.bind relation (Balance.solve ~env ~h ~nk:inp.nk ~ng:inp.ng)
  in
  let intra_k = (Intra.check ~sym:inp.sym_k ~attr:inp.attr_k).local in
  let balanced = solution <> None && intra_k in
  let label = derive inp.attr_k inp.attr_g ~overlap ~balanced in
  {
    label;
    solution = (if Table1.equal_label label L then solution else None);
    relation;
  }
