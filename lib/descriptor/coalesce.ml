open Symbolic

(* Remove element [i] from a list. *)
let drop i l = List.filteri (fun k _ -> k <> i) l

(* Replace element [j]. *)
let set j x l = List.mapi (fun k y -> if k = j then x else y) l

let is_seq (g : Pd.group) i = g.par <> Some i

let remove_dim (g : Pd.group) i ~(update_row : Pd.row -> Pd.row) : Pd.group =
  let par =
    match g.par with
    | Some p when p > i -> Some (p - 1)
    | p -> p
  in
  {
    dims = drop i g.dims;
    par;
    rows =
      List.map
        (fun r ->
          let r = update_row r in
          { r with Pd.alphas = drop i r.Pd.alphas; signs = drop i r.signs })
        g.rows;
  }

(* Rule: contiguous / overlap merge of dim i into dim j. *)
let try_merge asm (g : Pd.group) i j : Pd.group option =
  if i = j || not (is_seq g i && is_seq g j) then None
  else
    let di = List.nth g.dims i and dj = List.nth g.dims j in
    let contiguous =
      List.for_all
        (fun (r : Pd.row) ->
          Probe.equal asm di.stride (Expr.mul (List.nth r.alphas j) dj.stride))
        g.rows
    in
    if contiguous then
      let update (r : Pd.row) =
        let aj = Expr.mul (List.nth r.alphas i) (List.nth r.alphas j) in
        { r with Pd.alphas = set j aj r.Pd.alphas }
      in
      let g = remove_dim g i ~update_row:update in
      let j' = if j > i then j - 1 else j in
      let dims =
        set j'
          {
            (List.nth g.dims j') with
            Pd.vars = dj.vars @ di.vars;
            uniform = di.uniform && dj.uniform;
          }
          g.dims
      in
      Some { g with dims }
    else
      (* Overlap: delta_i = c * delta_j with constant 1 <= c <= alpha_j. *)
      match Expr.to_int (Expr.div di.stride dj.stride) with
      | Some c when c >= 1 ->
          let fits =
            List.for_all
              (fun (r : Pd.row) -> Probe.le asm (Expr.int c) (List.nth r.alphas j))
              g.rows
          in
          if not fits then None
          else
            let update (r : Pd.row) =
              let ai = List.nth r.alphas i and aj = List.nth r.alphas j in
              let aj' =
                Expr.add (Expr.mul (Expr.sub ai Expr.one) (Expr.int c)) aj
              in
              { r with Pd.alphas = set j aj' r.Pd.alphas }
            in
            let g = remove_dim g i ~update_row:update in
            let j' = if j > i then j - 1 else j in
            let dims =
              set j'
                {
                  (List.nth g.dims j') with
                  Pd.vars = dj.vars @ di.vars;
                  uniform = di.uniform && dj.uniform;
                }
                g.dims
            in
            Some { g with dims }
      | _ -> None

(* Dense-contiguity of the remaining sequential dims of a row: sorted by
   stride, each coarser stride equals the finer stride times the finer
   count. *)
let row_contiguous asm (g : Pd.group) ~without (r : Pd.row) =
  let dims =
    Pd.seq_dims g |> List.filter (fun (i, _) -> i <> without)
  in
  let dims =
    List.sort
      (fun (_, (a : Pd.dim)) (_, (b : Pd.dim)) ->
        if Expr.equal a.stride b.stride then 0
        else if Probe.le asm a.stride b.stride then -1
        else 1)
      dims
  in
  let rec walk = function
    | (i1, (d1 : Pd.dim)) :: ((_, (d2 : Pd.dim)) :: _ as rest) ->
        Probe.equal asm d2.stride
          (Expr.mul d1.stride (List.nth r.alphas i1))
        && walk rest
    | _ -> true
  in
  walk dims

(* Rule: subsumption deletion of dim i - sound when the reach of every
   source subscript over the sequential indices is unchanged once dim
   i's indices are pinned at their lower bound (0 after loop
   normalization), and dim i's stride lands on the dense grid formed by
   the remaining dims. *)
let try_delete (ctx : Ir.Phase.t) (g : Pd.group) i : Pd.group option =
  let asm = ctx.assume in
  if not (is_seq g i) then None
  else
    let di = List.nth g.dims i in
    let rest = Pd.seq_dims g |> List.filter (fun (k, _) -> k <> i) in
    if rest = [] then None
    else
      let finest =
        match rest with
        | [] -> None
        | (k0, d0) :: tl ->
            Some
              (List.fold_left
                 (fun (bk, (bd : Pd.dim)) (k, (d : Pd.dim)) ->
                   if Probe.le asm d.stride bd.stride then (k, d) else (bk, bd))
                 (k0, d0) tl)
      in
      match finest with
      | None -> None
      | Some (_, fine) ->
          let grid_ok = Probe.divides asm fine.stride di.stride in
          let contiguous =
            List.for_all (row_contiguous asm g ~without:i) g.rows
          in
          if not (grid_ok && contiguous) then None
          else
            let seq_vars =
              List.concat_map (fun (_, (d : Pd.dim)) -> d.vars) (Pd.seq_dims g)
            in
            (* Pin dim i's loop indices at their lower bound 0 by
               collapsing their domains - other loops' bounds may
               reference them, so substituting into phi alone is not
               enough. *)
            let asm_pinned =
              List.fold_left
                (fun a v -> Assume.set_domain a v (Assume.Expr_range (Expr.zero, Expr.zero)))
                asm di.vars
            in
            let reach_preserved phi =
              let same extract =
                match
                  ( extract asm ~over:seq_vars phi,
                    extract asm_pinned ~over:seq_vars phi )
                with
                | Some a, Some b -> Probe.equal asm a b
                | _ -> false
              in
              same Range.maximize && same Range.minimize
            in
            (* Rows that share a subscript (a read and a write of one
               element) ask the same question: ask it once. *)
            let ok =
              List.for_all reach_preserved
                (List.sort_uniq Expr.compare
                   (List.concat_map (fun (r : Pd.row) -> r.phis) g.rows))
            in
            if ok then Some (remove_dim g i ~update_row:Fun.id) else None

let group (ctx : Ir.Phase.t) (g : Pd.group) : Pd.group =
  let asm = ctx.assume in
  let rec fixpoint g =
    let n = List.length g.Pd.dims in
    let step =
      let found = ref None in
      (* Try merges first (they keep more structure), then deletions. *)
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if !found = None then found := try_merge asm g i j
        done
      done;
      for i = 0 to n - 1 do
        if !found = None then found := try_delete ctx g i
      done;
      !found
    in
    match step with Some g' -> fixpoint g' | None -> g
  in
  fixpoint g

let pd_timer = Metrics.timer "descriptor.coalesce"

let pd (t : Pd.t) : Pd.t =
  Metrics.with_timer pd_timer (fun () ->
      { t with groups = List.map (group t.ctx) t.groups })
