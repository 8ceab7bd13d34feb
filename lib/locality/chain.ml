open Symbolic
open Descriptor

type member = { name : string; phase_idx : int; region_size : int }

type summary = {
  array : string;
  members : member list;
  chain_size : int;
  max_member : int;
  homogenized : Pd.t option;
  covers_alike : bool;
}

(* Member and union sizes by enumeration: the oracle path.  A
   non-rectangular member contributes nothing (size 0, no addresses in
   the union), which the symbolic path mirrors. *)
let sizes_enum (lcg : Lcg.t) (nodes : Lcg.node list) =
  let union = Hashtbl.create 256 in
  let members =
    List.map
      (fun (n : Lcg.node) ->
        let size =
          try
            let tbl = Region.addresses lcg.env n.pd ~par:None in
            Hashtbl.iter (fun a () -> Hashtbl.replace union a ()) tbl;
            Hashtbl.length tbl
          with Region.Not_rectangular _ -> 0
        in
        { name = n.name; phase_idx = n.phase_idx; region_size = size })
      nodes
  in
  (members, Hashtbl.length union)

exception Chain_fallback of string

(* Closed-form member cardinalities and chain-union volume.  A member
   that raises [Not_rectangular] is size 0 and contributes no boxes,
   exactly like the enumerating path above.
   @raise Chain_fallback naming what left the closed form. *)
let sizes_symbolic (lcg : Lcg.t) (nodes : Lcg.node list) =
  let all_boxes = ref [] in
  let members =
    List.map
      (fun (n : Lcg.node) ->
        let size =
          match Setalg.boxes lcg.env n.pd ~par:None with
          | bs -> (
              all_boxes := bs @ !all_boxes;
              match Lattice.union_card bs with
              | Some c -> c
              | None ->
                  raise (Chain_fallback (n.name ^ " member volume")))
          | exception Region.Not_rectangular _ -> 0
          | exception Lattice.Overflow ->
              raise (Chain_fallback (n.name ^ " address overflow"))
        in
        { name = n.name; phase_idx = n.phase_idx; region_size = size })
      nodes
  in
  match Lattice.union_card !all_boxes with
  | Some c -> (members, c)
  | None -> raise (Chain_fallback "chain union volume")

let sizes (lcg : Lcg.t) nodes =
  let why = ref "" in
  Lattice.closed_or_enumerate ~stage:"chain"
    ~reason:(fun () -> !why)
    ~symbolic:(fun () ->
      try Some (sizes_symbolic lcg nodes)
      with Chain_fallback reason ->
        why := reason;
        None)
    ~enum:(fun () -> sizes_enum lcg nodes)

let summaries (lcg : Lcg.t) : summary list =
  List.concat_map
    (fun (g : Lcg.graph) ->
      List.map
        (fun chain ->
          let nodes = List.map (List.nth g.nodes) chain in
          let members, chain_size = sizes lcg nodes in
          let max_member =
            List.fold_left (fun acc m -> max acc m.region_size) 0 members
          in
          let homogenized =
            match nodes with
            | [] -> None
            | (first : Lcg.node) :: rest ->
                List.fold_left
                  (fun acc (n : Lcg.node) ->
                    Option.bind acc (fun pd -> Unionize.homogenize pd n.pd))
                  (Some first.pd) rest
          in
          let covers_alike =
            chain_size = 0
            || List.for_all
                 (fun m -> 10 * m.region_size >= 8 * chain_size)
                 members
          in
          { array = g.array; members; chain_size; max_member; homogenized; covers_alike })
        (Lcg.chains g))
    lcg.graphs

let pp ppf (s : summary) =
  Format.fprintf ppf "@[<v 2>chain [%s] on %s: %d addresses%s%s@,%a@]"
    (String.concat " -> " (List.map (fun m -> m.name) s.members))
    s.array s.chain_size
    (if s.covers_alike then ", members cover alike" else ", coverage varies")
    (match s.homogenized with Some _ -> ", homogenizes" | None -> "")
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf m ->
         Format.fprintf ppf "%-10s covers %d" m.name m.region_size))
    s.members
