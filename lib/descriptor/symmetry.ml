open Symbolic

type overlap = No_overlap | Overlap of Expr.t | Overlap_unknown

type t = {
  shifted : Expr.t list;
  reverse : Expr.t list;
  overlap : overlap;
  write_overlap : bool;
}

(* Rows are congruent when their sequential structure and parallel
   stride agree. *)
let congruent asm (g1 : Id.group) (r1 : Id.row) (g2 : Id.group) (r2 : Id.row) =
  List.length g1.seq_dims = List.length g2.seq_dims
  && List.for_all2
       (fun (a : Pd.dim) (b : Pd.dim) -> Probe.equal asm a.stride b.stride)
       g1.seq_dims g2.seq_dims
  && List.length r1.seq_alphas = List.length r2.seq_alphas
  && List.for_all2 (fun a b -> Probe.equal asm a b) r1.seq_alphas r2.seq_alphas
  && Probe.equal asm r1.par_stride r2.par_stride

(* An interval set: a dimension of stride +-1 contributes one interval
   per point of the others instead of one cell per address.  Native
   arithmetic, as a sweep address by address computes it (a run that
   wraps past [max_int] becomes two intervals). *)
let region (id : Id.t) env i =
  let run (count, stride) base =
    let last = base + ((count - 1) * stride) in
    let lo, hi = if stride > 0 then (base, last) else (last, base) in
    if count <= 0 then []
    else if lo <= hi then [ (lo, hi) ]
    else [ (lo, max_int); (min_int, hi) ]
  in
  let rec unit_dim = function
    | [] -> None
    | ((_, s) as d) :: rest when s = 1 || s = -1 -> Some (d, rest)
    | d :: rest -> Option.map (fun (u, rest) -> (u, d :: rest)) (unit_dim rest)
  in
  let rec sweep leaf acc base = function
    | [] -> List.rev_append (leaf base) acc
    | (count, stride) :: rest ->
        let acc = ref acc in
        for k = 0 to count - 1 do
          acc := sweep leaf !acc (base + (k * stride)) rest
        done;
        !acc
  in
  List.fold_left
    (fun acc ((g : Id.group), (r : Id.row)) ->
      let seq =
        List.map2
          (fun a (d : Pd.dim) -> (Env.eval env a, Env.eval env d.stride))
          r.seq_alphas g.seq_dims
      in
      let base =
        Env.eval env r.offset0 + (i * r.par_sign * Env.eval env r.par_stride)
      in
      match unit_dim seq with
      | Some (u, rest) -> sweep (run u) acc base rest
      | None -> sweep (fun b -> [ (b, b) ]) acc base seq)
    [] (Id.tagged_rows id)
  |> Lattice.Iv.norm

let analyze (id : Id.t) : t =
  let asm = id.ctx.assume in
  let tagged = Id.tagged_rows id in
  let pairs = Id.pairs ~self:false tagged in
  let shifted = ref [] and reverse = ref [] in
  List.iter
    (fun ((g1, (r1 : Id.row)), (g2, (r2 : Id.row))) ->
      if congruent asm g1 r1 g2 r2 then
        if r1.par_sign = r2.par_sign then begin
          let d = Expr.sub r2.offset0 r1.offset0 in
          let d = if Probe.nonneg asm d then d else Expr.neg d in
          match Probe.sign asm d with
          | Some s when s > 0 -> shifted := d :: !shifted
          | _ -> ()
        end
        else begin
          (* Reverse pairs constrain the distribution only when the two
             rows approach each other: the decreasing row starts above
             the increasing one and they meet in the middle.  Delta_r is
             the inclusive element count of the span between the two
             starting positions - chunks advancing from both ends must
             satisfy delta_P * p * H <= Delta_r / 2. *)
          let inc, dec = if r1.par_sign > 0 then (r1, r2) else (r2, r1) in
          let d = Expr.sub dec.offset0 inc.offset0 in
          if Probe.nonneg asm d then
            reverse := Expr.add d Expr.one :: !reverse
        end)
    pairs;
  (* Delta_s: shared elements between the ID regions of two consecutive
     parallel iterations.  Detection is whole-ID sampled set
     intersection (covering both a row overlapping itself and a
     stencil's cross-row ghosts), counted on interval sets; when a
     closed-form candidate from the dense-interval formulas matches the
     sampled sizes it is reported as the distance, otherwise the
     overlap is flagged with unknown width. *)
  let write_shared = ref false in
  let write_checks = ref 0 in
  let sampled_sizes =
    let sizes = ref [] and failed = ref false in
    (try
       for i = 0 to 11 do
         let env = Probe.sample asm i in
         let shared = Lattice.Iv.(total (inter (region id env 0) (region id env 1))) in
         sizes := (shared, env) :: !sizes;
         if shared > 0 && (not !write_shared) && !write_checks < 3 then begin
           incr write_checks;
           (* access-precise write check via the enumeration oracle:
              the unioned rows blur R/W mixes (Fig. 3(d) fuses a read
              and a write row), so ask the IR itself which of the
              shared cells are written - walking only this array's
              sites in parallel iterations 0 and 1 *)
           let w0 = Hashtbl.create 32
           and a0 = Hashtbl.create 32
           and w1 = Hashtbl.create 32
           and a1 = Hashtbl.create 32 in
           Ir.Enumerate.iter ~only:(id.array, [ 0; 1 ]) id.ctx.prog env id.ctx.phase
             ~f:(fun ~par ~array:_ ~addr access ~work:_ ->
               let a, w = if par = Some 0 then (a0, w0) else (a1, w1) in
               Hashtbl.replace a addr ();
               if access = Ir.Types.Write then Hashtbl.replace w addr ());
           let hits w other =
             Hashtbl.fold (fun a () acc -> acc || Hashtbl.mem other a) w false
           in
           if hits w0 a1 || hits w1 a0 then write_shared := true
         end
       done
     with Expr.Non_integral _ | Env.Unbound _ -> failed := true);
    if !failed then None else Some !sizes
  in
  let dense = Id.dense id in
  let candidates =
    (* Self-overlap of each dense row, plus cross-row frontier formulas
       for dense row pairs with a common parallel stride; invariant
       rows (replication) contribute their whole extent. *)
    List.concat_map
      (fun ((_, (r : Id.row)) as _tr) ->
        if Expr.is_zero r.par_stride then [ Expr.add r.span_seq Expr.one ]
        else if dense r then
          [ Expr.add (Expr.sub r.span_seq r.par_stride) Expr.one ]
        else [])
      tagged
    @ List.concat_map
        (fun ((_, (rj : Id.row)), (_, (rl : Id.row))) ->
          if
            dense rj && dense rl
            && Probe.equal asm rj.par_stride rl.par_stride
            && (not (Expr.is_zero rj.par_stride))
            && rj.par_sign = rl.par_sign
          then
            [
              (* UL_j(0) - LB_l(1) + 1 *)
              Expr.add
                (Expr.sub
                   (Expr.add rj.offset0 rj.span_seq)
                   (Expr.add rl.offset0 rl.par_stride))
                Expr.one;
            ]
          else [])
        pairs
  in
  let positive_candidates =
    List.filter
      (fun e -> match Probe.sign asm e with Some s -> s > 0 | None -> false)
      candidates
  in
  let best_candidate =
    match positive_candidates with
    | [] -> None
    | e :: rest ->
        List.fold_left
          (fun acc x ->
            Option.bind acc (fun a ->
                if Probe.le asm x a then Some a
                else if Probe.le asm a x then Some x
                else None))
          (Some e) rest
  in
  let overlap =
    match id.ctx.par with
    | None -> No_overlap
    | Some _ -> (
        match sampled_sizes with
        | None ->
            (* Could not even sample: be conservative if any formula
               suggests sharing. *)
            if positive_candidates <> [] then Overlap_unknown else No_overlap
        | Some sizes ->
            let any = List.exists (fun (s, _) -> s > 0) sizes in
            if not any then No_overlap
            else (
              match best_candidate with
              | Some e
                when List.for_all
                       (fun (s, env) ->
                         try Env.eval env e = s
                         with Expr.Non_integral _ | Env.Unbound _ -> false)
                       sizes ->
                  Overlap e
              | _ -> Overlap_unknown))
  in
  let write_overlap =
    match overlap with
    | No_overlap -> false
    | Overlap _ -> !write_shared
    | Overlap_unknown ->
        (* if sampling worked, trust it; otherwise be conservative *)
        (match sampled_sizes with None -> true | Some _ -> !write_shared)
  in
  {
    shifted = List.sort_uniq Expr.compare !shifted;
    reverse = List.sort_uniq Expr.compare !reverse;
    overlap;
    write_overlap;
  }

let has_overlap id = (analyze id).overlap <> No_overlap

let pp ppf t =
  let pl name ppf = function
    | [] -> ()
    | l ->
        Format.fprintf ppf "%s: %a@ " name
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
             Expr.pp)
          l
  in
  Format.fprintf ppf "@[<h>%a%a%a@]" (pl "Delta_d") t.shifted (pl "Delta_r")
    t.reverse
    (fun ppf -> function
      | No_overlap -> Format.pp_print_string ppf "no overlap"
      | Overlap d -> Format.fprintf ppf "Delta_s: %a" Expr.pp d
      | Overlap_unknown -> Format.pp_print_string ppf "Delta_s: unknown")
    t.overlap
