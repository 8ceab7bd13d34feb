open Symbolic

type row = {
  seq_alphas : Expr.t list;
  offset0 : Expr.t;
  par_stride : Expr.t;
  par_sign : int;
  span_seq : Expr.t;
  mix : Access_mix.t;
}

type group = { seq_dims : Pd.dim list; rows : row list }

type t = { array : string; ctx : Ir.Phase.t; groups : group list; exact : bool }

let of_pd (pd : Pd.t) : t =
  let convert_group (g : Pd.group) : group =
    let seq = Pd.seq_dims g in
    let seq_dims = List.map snd seq in
    let rows =
      List.map
        (fun (r : Pd.row) ->
          {
            seq_alphas = List.map (fun (i, _) -> List.nth r.alphas i) seq;
            offset0 = r.offset;
            par_stride =
              (match Pd.par_stride g with Some s -> s | None -> Expr.zero);
            par_sign = Pd.par_sign r g;
            span_seq = Pd.row_span_seq g r;
            mix = r.mix;
          })
        g.rows
    in
    { seq_dims; rows }
  in
  {
    array = pd.array;
    ctx = pd.ctx;
    groups = List.map convert_group pd.groups;
    exact = pd.exact;
  }

(* Like [Pd.key]: the projected content without [ctx] (callers whose
   cached values consult the context - symmetry's write checks - fold
   [Ir.Phase.key] into their own keys). *)
let row_key (r : row) =
  Artifact.Key.(
    list
      [
        list (List.map expr r.seq_alphas);
        expr r.offset0;
        expr r.par_stride;
        int r.par_sign;
        expr r.span_seq;
        list [ bool r.mix.Access_mix.reads; bool r.mix.Access_mix.writes ];
      ])

let group_key (g : group) =
  Artifact.Key.(
    list
      [
        list (List.map Pd.dim_key g.seq_dims);
        list (List.map row_key g.rows);
      ])

let key (t : t) =
  Artifact.Key.(
    list [ str t.array; list (List.map group_key t.groups); bool t.exact ])

let offset_at r ~i =
  Expr.add r.offset0
    (Expr.mul (Expr.int r.par_sign) (Expr.mul r.par_stride i))

let upper_at r ~i = Expr.add (offset_at r ~i) r.span_seq

let all_rows t = List.concat_map (fun g -> g.rows) t.groups

let par_strides t =
  all_rows t
  |> List.filter_map (fun r ->
         if Expr.is_zero r.par_stride then None else Some r.par_stride)
  |> List.sort_uniq Expr.compare

let rectangular t =
  List.for_all
    (fun g -> List.for_all (fun (d : Pd.dim) -> d.uniform) g.seq_dims)
    t.groups

let pp ppf t =
  let pp_row ppf r =
    Format.fprintf ppf "tau_B(i)=%a%s%a*i span=%a %a" Expr.pp r.offset0
      (if r.par_sign >= 0 then " + " else " - ")
      Expr.pp r.par_stride Expr.pp r.span_seq Access_mix.pp r.mix
  in
  Format.fprintf ppf "@[<v 2>ID %s:@,%a@]" t.array
    (Format.pp_print_list pp_row) (all_rows t)
