open Symbolic
open Ir

type dim = { stride : Expr.t; vars : string list; uniform : bool }

type row = {
  alphas : Expr.t list;
  signs : int list;
  offset : Expr.t;
  mix : Access_mix.t;
  phis : Expr.t list;
}

type group = { dims : dim list; par : int option; rows : row list }

type t = { array : string; ctx : Phase.t; groups : group list; exact : bool }

let group_of_ard (ard : Ard.t) : group =
  (* Drop loop-invariant (zero stride) dims; locate the parallel one. *)
  let live =
    List.filter (fun (d : Ard.dim) -> not (Expr.is_zero d.stride)) ard.dims
  in
  let par =
    match ard.par_var with
    | None -> None
    | Some v ->
        let rec find i = function
          | [] -> None
          | (d : Ard.dim) :: _ when List.mem v d.vars -> Some i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 live
  in
  {
    dims =
      List.map
        (fun (d : Ard.dim) -> { stride = d.stride; vars = d.vars; uniform = d.uniform })
        live;
    par;
    rows =
      [
        {
          alphas = List.map (fun (d : Ard.dim) -> d.alpha) live;
          signs = List.map (fun (d : Ard.dim) -> d.sign) live;
          offset = ard.offset;
          mix = ard.mix;
          phis = [ ard.phi ];
        };
      ];
  }

let same_dims a b =
  List.length a.dims = List.length b.dims
  && a.par = b.par
  && List.for_all2 (fun (x : dim) (y : dim) -> Expr.equal x.stride y.stride) a.dims b.dims

let of_phase ({ ctx; ards } : Ard.phase) ~array : t =
  let ards = List.filter (fun (a : Ard.t) -> String.equal a.array array) ards in
  let exact = List.for_all (fun (a : Ard.t) -> a.exact) ards in
  let groups =
    List.fold_left
      (fun groups ard ->
        let g = group_of_ard ard in
        let rec insert = function
          | [] -> [ g ]
          | h :: rest when same_dims h g -> { h with rows = h.rows @ g.rows } :: rest
          | h :: rest -> h :: insert rest
        in
        insert groups)
      [] ards
  in
  { array; ctx; groups; exact }

let par_stride g =
  Option.map (fun i -> (List.nth g.dims i).stride) g.par

let par_sign (r : row) (g : group) =
  match g.par with None -> 1 | Some i -> List.nth r.signs i

let seq_dims g =
  List.filteri (fun i _ -> g.par <> Some i) (List.mapi (fun i d -> (i, d)) g.dims)

let row_span_seq g (r : row) =
  List.fold_left
    (fun acc (i, (d : dim)) ->
      let alpha = List.nth r.alphas i in
      Expr.add acc (Expr.mul (Expr.sub alpha Expr.one) d.stride))
    Expr.zero (seq_dims g)

let group_mix g =
  List.fold_left
    (fun acc (r : row) -> Access_mix.join acc r.mix)
    { Access_mix.reads = false; writes = false }
    g.rows

let pd_mix t =
  List.fold_left
    (fun acc g -> Access_mix.join acc (group_mix g))
    { Access_mix.reads = false; writes = false }
    t.groups

let finest_seq asm g =
  match seq_dims g with
  | [] -> None
  | (i0, d0) :: rest ->
      Some
        (List.fold_left
           (fun (bi, (bd : dim)) (i, (d : dim)) ->
             if Probe.le asm d.stride bd.stride then (i, d) else (bi, bd))
           (i0, d0) rest)

let pp_row dims ppf (r : row) =
  Format.fprintf ppf "alphas=(%a) offset=%a %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Expr.pp)
    r.alphas Expr.pp r.offset Access_mix.pp r.mix;
  let has_neg = List.exists (fun s -> s < 0) r.signs in
  if has_neg then
    Format.fprintf ppf " signs=(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_int)
      r.signs;
  ignore dims

let pp_group ppf g =
  Format.fprintf ppf "@[<v 2>strides=(%a)%s@,%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (d : dim) -> Expr.pp ppf d.stride))
    g.dims
    (match g.par with Some i -> Printf.sprintf " par=dim%d" i | None -> " par=none")
    (Format.pp_print_list (pp_row g.dims))
    g.rows

let pp ppf t =
  Format.fprintf ppf "@[<v 2>PD %s%s:@,%a@]" t.array
    (if t.exact then "" else " (inexact)")
    (Format.pp_print_list pp_group) t.groups
