open Symbolic

exception Not_rectangular of string

let eval_const env e =
  try Env.eval env e
  with Expr.Non_integral _ | Env.Unbound _ ->
    raise (Not_rectangular (Expr.to_string e))

let row_addresses env (g : Pd.group) (r : Pd.row) ~par acc =
  let base = eval_const env r.offset in
  let par_contrib =
    match (g.par, par) with
    | Some pi, Some i ->
        let stride = eval_const env (List.nth g.dims pi).stride in
        let sign = List.nth r.signs pi in
        `Fixed (sign * stride * i)
    | Some pi, None ->
        let stride = eval_const env (List.nth g.dims pi).stride in
        let sign = List.nth r.signs pi in
        let count = eval_const env (List.nth r.alphas pi) in
        `Sweep (sign * stride, count)
    | None, _ -> `Fixed 0
  in
  let seq =
    Pd.seq_dims g
    |> List.map (fun (i, (d : Pd.dim)) ->
           (eval_const env (List.nth r.alphas i), eval_const env d.stride))
  in
  let rec sweep_seq base = function
    | [] -> Hashtbl.replace acc base ()
    | (count, stride) :: rest ->
        for k = 0 to count - 1 do
          sweep_seq (base + (k * stride)) rest
        done
  in
  match par_contrib with
  | `Fixed off -> sweep_seq (base + off) seq
  | `Sweep (stride, count) ->
      for i = 0 to count - 1 do
        sweep_seq (base + (stride * i)) seq
      done

(* Companion to [enum.iter]: counts descriptor-region expansions. *)
let enum_count = Metrics.counter "enum.addresses"

let addresses_timer = Metrics.timer "region.enumerate"

let addresses env (t : Pd.t) ~par =
  Metrics.with_timer addresses_timer @@ fun () ->
  Metrics.incr enum_count;
  let acc = Hashtbl.create 256 in
  List.iter
    (fun (g : Pd.group) -> List.iter (fun r -> row_addresses env g r ~par acc) g.rows)
    t.groups;
  acc

let sorted tbl =
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
