open Symbolic
open Descriptor

type side = { id : Id.t; primary : Id.row; gap : Expr.t; overlap : bool }

let side ?overlap (id : Id.t) =
  let asm = id.ctx.assume in
  (* Rows need not be fully congruent (a stencil's ghost rows differ in
     extent after union), but they must advance with one parallel
     stride for a single representative to describe the sweep. *)
  let strides = Id.par_strides id in
  let comparable =
    match strides with
    | [] | [ _ ] -> true
    | s :: rest -> List.for_all (fun s' -> Probe.equal asm s s') rest
  in
  if not comparable then None
  else
    let increasing =
      List.filter
        (fun (r : Id.row) -> r.par_sign > 0 && not (Expr.is_zero r.par_stride))
        (Id.all_rows id)
    in
    let primary =
      match increasing with
      | [] -> None
      | r :: rest ->
          List.fold_left
            (fun acc (x : Id.row) ->
              Option.bind acc (fun (a : Id.row) ->
                  if Probe.le asm a.offset0 x.offset0 then Some a
                  else if Probe.le asm x.offset0 a.offset0 then Some x
                  else None))
            (Some r) rest
    in
    Option.bind primary (fun (r : Id.row) ->
        (* h = delta_P - span - 1, clamped at 0 (interleaved regions). *)
        let raw =
          Expr.sub (Expr.sub r.par_stride r.span_seq) Expr.one
        in
        let overlap =
          match overlap with
          | Some o -> o
          | None -> Symmetry.has_overlap id
        in
        match Probe.sign asm raw with
        | Some s when s >= 0 -> Some { id; primary = r; gap = raw; overlap }
        | Some _ -> Some { id; primary = r; gap = Expr.zero; overlap }
        | None -> None)

let ul_plus_h (s : side) ~p =
  if s.overlap then
    (* Overlapping ID: the union-inflated span counts replicated ghost
       cells, not owned data; the ownership boundary between chunk p-1
       and chunk p is tau + p*delta_P - 1. *)
    Expr.sub
      (Expr.add s.primary.offset0 (Expr.mul p s.primary.par_stride))
      Expr.one
  else
    (* Disjoint iterations (dense, gapped or interleaved): the paper's
       UL(I,0,p) + h = tau + (p-1)*delta_P + span + h; for dense/gapped
       rows this telescopes to tau + p*delta_P - 1, while interleaved
       rows (TFFT2's TRANSA columns) keep their full span - Eq. 4's
       2QP - P term. *)
    Expr.add
      (Expr.add
         (Expr.add s.primary.offset0
            (Expr.mul (Expr.sub p Expr.one) s.primary.par_stride))
         s.primary.span_seq)
      s.gap

type relation = { a : Expr.t; b : Expr.t; c : Expr.t }

(* Offset adjustment (paper Sec. 2.1): express both sides relative to
   tau_min by subtracting R = floor((tau - tau_min)/delta_P) parallel
   strides, so phases whose regions differ by whole iterations (e.g. a
   stencil's read frame vs. its write frame) compare aligned. *)
let adjust (s : side) ~tau_min =
  if Expr.is_zero s.primary.par_stride then s
  else
    let r =
      Expr.floor_div (Expr.sub s.primary.offset0 tau_min) s.primary.par_stride
    in
    {
      s with
      primary =
        {
          s.primary with
          offset0 = Expr.sub s.primary.offset0 (Expr.mul r s.primary.par_stride);
        };
    }

let relation ?overlap_k ?overlap_g idk idg =
  match (side ?overlap:overlap_k idk, side ?overlap:overlap_g idg) with
  | Some sk, Some sg ->
      let asm = idk.Id.ctx.assume in
      let tau_min =
        if Probe.le asm sk.primary.offset0 sg.primary.offset0 then
          sk.primary.offset0
        else sg.primary.offset0
      in
      let sk = adjust sk ~tau_min and sg = adjust sg ~tau_min in
      (* lhs(p_k) = a*p_k + ck ; rhs(p_g) = b*p_g + cg.
         Equation: a*p_k = b*p_g + (cg - ck). *)
      let lhs = ul_plus_h sk ~p:(Expr.var "&pk")
      and rhs = ul_plus_h sg ~p:(Expr.var "&pg") in
      Option.bind (Expr.linear_in "&pk" lhs) (fun (a, ck) ->
          Option.bind (Expr.linear_in "&pg" rhs) (fun (b, cg) ->
              Some { a; b; c = Expr.sub cg ck }))
  | _ -> None

type solution = { pk : int; pg : int; count : int; ai : int; bi : int; ci : int }

let solve ~env ~h ~nk ~ng (rel : relation) =
  try
    let a = Env.eval env rel.a
    and b = Env.eval env rel.b
    and c = Env.eval env rel.c in
    (* Sub-stride misalignment (|c| below one stride of the coarser
       side) stays inside a block for any chunking: absorb it. *)
    let c = if c <> 0 && abs c < max a b then 0 else c in
    if a <= 0 || b <= 0 then None
    else
      let pk_max = Lattice.cdiv nk h and pg_max = Lattice.cdiv ng h in
      (* a*pk - b*pg = c *)
      let g, u, _v = Lattice.egcd a b in
      if c mod g <> 0 then None
      else
        let a' = a / g and b' = b / g in
        (* particular: pk0 = u*(c/g); pg0 = (a*pk0 - c)/b *)
        let pk0 = u * (c / g) in
        let pg0 = ((a * pk0) - c) / b in
        (* family: pk = pk0 + b'*t ; pg = pg0 + a'*t *)
        let t_lo = max (Lattice.cdiv (1 - pk0) b') (Lattice.cdiv (1 - pg0) a') in
        let t_hi =
          min (Lattice.fdiv (pk_max - pk0) b') (Lattice.fdiv (pg_max - pg0) a')
        in
        if t_lo > t_hi then None
        else
          Some
            {
              pk = pk0 + (b' * t_lo);
              pg = pg0 + (a' * t_lo);
              count = t_hi - t_lo + 1;
              ai = a;
              bi = b;
              ci = c;
            }
  with Expr.Non_integral _ | Env.Unbound _ -> None

type storage = {
  kind : [ `Shifted | `Reverse ];
  distance : Expr.t;
  dist : int;
  limit_expr : Expr.t;
  limit : int;
  stride_expr : Expr.t;
  stride : int;
}

let frame env id (sym : Symmetry.t) =
  let guard f =
    try f () with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> None
  in
  let stride s = guard (fun () -> Some (Env.eval env s.primary.par_stride)) in
  match Option.map (fun s -> (s, stride s)) (side id) with
  | Some (s, Some dp) when dp > 0 ->
      let reach =
        Option.value ~default:0
          (guard (fun () -> Some (Env.eval env s.primary.span_seq + (2 * dp))))
      in
      let fact kind distance =
        guard (fun () ->
            let dist = Qnum.floor (Env.eval_q env distance) in
            if dist <= reach then None
            else
              let limit_expr, limit =
                match kind with
                | `Shifted -> (distance, dist)
                | `Reverse -> (Expr.scale (Qnum.make 1 2) distance, Lattice.fdiv dist 2)
              in
              let stride_expr = s.primary.par_stride in
              Some { kind; distance; dist; limit_expr; limit; stride_expr; stride = dp })
      in
      ( guard (fun () -> Some (Env.eval env s.primary.offset0, dp)),
        List.filter_map (fact `Shifted) sym.shifted
        @ List.filter_map (fact `Reverse) sym.reverse )
  | _ -> (None, [])

let pp_relation ppf r =
  Format.fprintf ppf "%a * p_k = %a * p_g%s%a" Expr.pp r.a Expr.pp r.b
    (if Expr.is_zero r.c then "" else " + ")
    (fun ppf c -> if not (Expr.is_zero c) then Expr.pp ppf c)
    r.c
