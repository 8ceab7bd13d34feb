open Symbolic

(* Mirror of Region.eval_const: the same failures must raise the same
   exception so both accounting modes degrade identically. *)
let eval_const env e =
  try Env.eval env e
  with Expr.Non_integral _ | Env.Unbound _ ->
    raise (Region.Not_rectangular (Expr.to_string e))

let row_box env (g : Pd.group) (r : Pd.row) ~par =
  let base = eval_const env r.offset in
  let par_dim =
    match (g.par, par) with
    | Some pi, Some i ->
        let stride = eval_const env (List.nth g.dims pi).stride in
        let sign = List.nth r.signs pi in
        `Fixed (Lattice.Safe.mul (Lattice.Safe.mul sign stride) i)
    | Some pi, None ->
        let stride = eval_const env (List.nth g.dims pi).stride in
        let sign = List.nth r.signs pi in
        let count = eval_const env (List.nth r.alphas pi) in
        `Dim (count, sign * stride)
    | None, _ -> `Fixed 0
  in
  let seq =
    Pd.seq_dims g
    |> List.map (fun (i, (d : Pd.dim)) ->
           (eval_const env (List.nth r.alphas i), eval_const env d.stride))
  in
  match par_dim with
  | `Fixed off -> Lattice.make ~base:(Lattice.Safe.add base off) seq
  | `Dim (count, stride) -> Lattice.make ~base ((count, stride) :: seq)

let boxes env (t : Pd.t) ~par =
  List.concat_map
    (fun (g : Pd.group) ->
      List.filter_map (fun r -> row_box env g r ~par) g.rows)
    t.groups

let bounds env t ~par =
  match boxes env t ~par with
  | bs -> Lattice.bounds bs
  | exception Lattice.Overflow -> raise (Region.Not_rectangular "overflow")
