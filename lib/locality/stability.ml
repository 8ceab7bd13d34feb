open Symbolic

type edge_report = {
  array : string;
  src : string;
  dst : string;
  labels : (int * Table1.label list) list;
  stable : Table1.label option;
}

type t = edge_report list

let sample_envs (prog : Ir.Types.program) =
  let st = Random.State.make [| 23; 42; 2029 |] in
  List.init 3 (fun _ -> Assume.sample ~state:st prog.params)

let analyze ?(h_values = [ 2; 4; 8; 16; 32; 64 ]) (prog : Ir.Types.program) : t =
  let envs = sample_envs prog in
  let ards = Descriptor.Ard.of_program prog in
  (* index edges structurally via the first build *)
  let builds =
    List.map
      (fun h -> (h, List.map (fun env -> Lcg.build ~ards prog ~env ~h) envs))
      h_values
  in
  match builds with
  | [] -> []
  | (_, first :: _) :: _ ->
      List.concat_map
        (fun (g0 : Lcg.graph) ->
          List.map
            (fun (e0 : Lcg.edge) ->
              let src = (List.nth g0.nodes e0.src).name
              and dst = (List.nth g0.nodes e0.dst).name in
              let labels =
                List.map
                  (fun (h, lcgs) ->
                    ( h,
                      List.filter_map
                        (fun (lcg : Lcg.t) ->
                          let g =
                            List.find_opt
                              (fun (g : Lcg.graph) -> g.array = g0.array)
                              lcg.graphs
                          in
                          Option.bind g (fun g ->
                              List.find_opt
                                (fun (e : Lcg.edge) ->
                                  e.src = e0.src && e.dst = e0.dst
                                  && e.back = e0.back)
                                g.edges)
                          |> Option.map (fun (e : Lcg.edge) -> e.label))
                        lcgs ))
                  builds
              in
              let all = List.concat_map snd labels in
              let stable =
                match all with
                | [] -> None
                | l :: rest ->
                    if List.for_all (Table1.equal_label l) rest then Some l
                    else None
              in
              { array = g0.array; src; dst; labels; stable })
            g0.edges)
        first.graphs
  | _ -> []

let all_stable t = List.for_all (fun e -> e.stable <> None) t

let pp ppf (t : t) =
  List.iter
    (fun e ->
      Format.fprintf ppf "@[<h>[%s] %s -> %s: " e.array e.src e.dst;
      (match e.stable with
      | Some l -> Format.fprintf ppf "stable %s" (Table1.label_to_string l)
      | None ->
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ")
            (fun ppf (h, ls) ->
              Format.fprintf ppf "H=%d:%s" h
                (String.concat "/"
                   (List.sort_uniq compare (List.map Table1.label_to_string ls))))
            ppf e.labels);
      Format.fprintf ppf "@]@,")
    t
