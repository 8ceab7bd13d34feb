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

(* Member and union sizes: a member whose region is not rectangular is
   size 0 and adds no addresses to the union. *)
let sizes (lcg : Lcg.t) (nodes : Lcg.node list) =
  let sized = List.map (fun n -> (n, Lcg.footprint lcg [ n ])) nodes in
  let members =
    List.map
      (fun ((n : Lcg.node), size) ->
        { name = n.name; phase_idx = n.phase_idx;
          region_size = Option.value size ~default:0 })
      sized
  in
  let rectangular =
    List.filter_map (fun (n, s) -> Option.map (fun _ -> n) s) sized
  in
  (members, Option.value (Lcg.footprint lcg rectangular) ~default:0)

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
