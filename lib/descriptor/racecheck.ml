open Symbolic

type witness = {
  w_array : string;
  w_kind : string;
  w_distance : int;
  w_note : string;
}

type verdict =
  | Proved_independent
  | Proved_dependent of witness
  | Unknown of string

(* Outcome for one pair of descriptor rows. *)
type pair_result = Disjoint | Conflict of witness | Cannot of string

let recoverable = function
  | Ard.Unsupported | Region.Not_rectangular _ -> true
  | e -> Ir.Autopar.unevaluable e

(* A row of an ID paired with the structural facts the tests need. *)
type trow = {
  row : Id.row;
  seq_dims : Pd.dim list;
  signed_stride : Expr.t;  (** par_sign * par_stride *)
  dense : bool;  (** seq region is a gap-free interval *)
  clean : bool;  (** offset and stride free of every loop index *)
  inner : bool;  (** every seq dim sweeps a loop inside the candidate *)
}

let kind_of (m1 : Access_mix.t) (m2 : Access_mix.t) =
  if m1.writes && m2.writes then "write-write"
  else if m1.writes then "write-read"
  else "read-write"

(* Disjointness / conflict between the per-iteration regions of two rows
   that advance with the same signed stride [s] per parallel iteration.
   The region of row r at iteration i is [o_r + s*i, o_r + s*i + sp_r];
   the gap between iterations i and i' = i + d is D(d) = (o2-o1) + s*d,
   linear in d, so its range over d in [1, n-1] (and [-(n-1), -1]) is
   decided at the endpoints. *)
let same_stride_test asm ~n ~array (t1 : trow) (t2 : trow) : pair_result =
  let o1 = t1.row.Id.offset0 and o2 = t2.row.Id.offset0 in
  let sp1 = t1.row.Id.span_seq and sp2 = t2.row.Id.span_seq in
  let s = t1.signed_stride in
  let diff = Expr.sub o2 o1 in
  let d_at d = Expr.add diff (Expr.mul s d) in
  let dmax = Expr.sub n Expr.one in
  let above e1 e2 =
    Probe.lt asm sp1 (d_at e1) && Probe.lt asm sp1 (d_at e2)
  in
  let below e1 e2 =
    Probe.lt asm (d_at e1) (Expr.neg sp2)
    && Probe.lt asm (d_at e2) (Expr.neg sp2)
  in
  let forward = above Expr.one dmax || below Expr.one dmax in
  let backward =
    above (Expr.neg Expr.one) (Expr.neg dmax)
    || below (Expr.neg Expr.one) (Expr.neg dmax)
  in
  if forward && backward then Disjoint
  else begin
    (* Not provably disjoint: try to prove a conflict at distance +-1.
       Only rows that are dense (interval overlap implies a shared
       cell), fully clean (the formulas are the exact region), and
       whose sequential dims all sweep loops nested inside the
       candidate (so the shared cell lives in one loop instance) can
       witness a dependence. *)
    let exact_spans =
      t1.dense && t2.dense && t1.clean && t2.clean && t1.inner && t2.inner
      && Probe.nonneg asm sp1 && Probe.nonneg asm sp2
      && Probe.le asm (Expr.int 2) n
    in
    let conflict_at d =
      let gap = d_at (Expr.int d) in
      Probe.le asm gap sp1 && Probe.le asm (Expr.neg sp2) gap
    in
    if exact_spans && conflict_at 1 then
      Conflict
        {
          w_array = array;
          w_kind = kind_of t1.row.Id.mix t2.row.Id.mix;
          w_distance = 1;
          w_note =
            Format.asprintf
              "iterations i and i+1 share cells: offsets %a / %a, stride %a, \
               spans %a / %a"
              Expr.pp o1 Expr.pp o2 Expr.pp s Expr.pp sp1 Expr.pp sp2;
        }
    else if exact_spans && conflict_at (-1) then
      Conflict
        {
          w_array = array;
          w_kind = kind_of t1.row.Id.mix t2.row.Id.mix;
          w_distance = -1;
          w_note =
            Format.asprintf
              "iterations i and i-1 share cells: offsets %a / %a, stride %a"
              Expr.pp o1 Expr.pp o2 Expr.pp s;
        }
    else
      Cannot
        (Format.asprintf
           "cannot separate rows of %s (offsets %a / %a, stride %a)" array
           Expr.pp o1 Expr.pp o2 Expr.pp s)
  end

(* Fallback for row pairs with different (or loop-dependent) strides:
   compare the bounding boxes of everything either row can ever touch.
   Loop-index-dependent bounds are eliminated by monotone substitution
   (Range), so the boxes only widen - disjoint boxes prove independence,
   overlapping boxes prove nothing. *)
let extent_test asm ~loop_vars ~n ~array (t1 : trow) (t2 : trow) : pair_result
    =
  let dmax = Expr.sub n Expr.one in
  let reach (t : trow) =
    let o = t.row.Id.offset0 and sp = t.row.Id.span_seq in
    let travel = Expr.mul t.signed_stride dmax in
    if t.row.Id.par_sign >= 0 then (o, Expr.add (Expr.add o travel) sp)
    else (Expr.add o travel, Expr.add o sp)
  in
  let bound dir e =
    let over = List.filter (fun v -> Expr.mem_var v e) loop_vars in
    if over = [] then Some e
    else
      match dir with
      | `Max -> Range.maximize asm ~over e
      | `Min -> Range.minimize asm ~over e
  in
  let lo1, hi1 = reach t1 and lo2, hi2 = reach t2 in
  match
    (bound `Min lo1, bound `Max hi1, bound `Min lo2, bound `Max hi2)
  with
  | Some lo1, Some hi1, Some lo2, Some hi2 ->
      if Probe.lt asm hi1 lo2 || Probe.lt asm hi2 lo1 then Disjoint
      else
        Cannot
          (Format.asprintf "overlapping extents of %s rows (%a..%a vs %a..%a)"
             array Expr.pp lo1 Expr.pp hi1 Expr.pp lo2 Expr.pp hi2)
  | _ -> Cannot ("unbounded extent for a row of " ^ array)

(* Residue-class separation for rows whose sequential strides share a
   common modulus [g] (typically the row length N of a linearized
   matrix): every address row r touches at parallel iteration [i] is
   congruent to [offset_r + stride_r * i] mod g, because all sequential
   contributions are multiples of g.  Disjointness then follows from
   modular arithmetic alone, no matter how far the sequential spans
   reach - exactly the case the span-based interval tests cannot
   separate.  Two sound closures:

   - {e apart}: g also divides both parallel strides and the offsets
     differ mod g.  The two rows live in fixed distinct residue
     classes, so no pair of iterations ever meets.
   - {e rotating}: the offsets agree mod g and both rows advance with
     the same signed stride s with 0 < |s| * (n-1) < g.  Distinct
     iterations then occupy distinct residue classes, which excludes
     every loop-carried collision (same-iteration sharing is not a
     race).

   Divisibility and non-divisibility of symbolic expressions are
   decided against small multiplier candidates through Probe
   identities; an undecided modulus is simply skipped, so failure only
   costs precision, never soundness. *)
let congruence_test asm ~n (t1 : trow) (t2 : trow) : bool =
  let quotients = List.init 9 (fun k -> k - 4) in
  let divides g e =
    List.exists
      (fun q -> Probe.equal asm e (Expr.mul g (Expr.int q)))
      quotients
  in
  let strictly_between_multiples g e =
    List.exists
      (fun q ->
        Probe.lt asm (Expr.mul g (Expr.int q)) e
        && Probe.lt asm e (Expr.mul g (Expr.int (q + 1))))
      quotients
  in
  let strides_of (t : trow) =
    List.map (fun (d : Pd.dim) -> d.Pd.stride) t.seq_dims
  in
  let seq_strides = strides_of t1 @ strides_of t2 in
  let diff = Expr.sub t2.row.Id.offset0 t1.row.Id.offset0 in
  let dmax = Expr.sub n Expr.one in
  t1.clean && t2.clean
  && List.exists
       (fun g ->
         Probe.lt asm Expr.one g
         && List.for_all (fun s -> divides g s) seq_strides
         &&
         let apart =
           divides g t1.signed_stride
           && divides g t2.signed_stride
           && strictly_between_multiples g diff
         in
         let rotating =
           divides g diff
           && Probe.equal asm t1.signed_stride t2.signed_stride
           &&
           let s = t1.signed_stride in
           (Probe.lt asm Expr.zero s
           && Probe.lt asm (Expr.mul s dmax) g)
           || Probe.lt asm s Expr.zero
              && Probe.lt asm (Expr.mul (Expr.neg s) dmax) g
         in
         apart || rotating)
       (List.sort_uniq Expr.compare seq_strides)

let pair_test asm ~loop_vars ~n ~array (t1 : trow) (t2 : trow) : pair_result =
  let primary =
    if
      t1.clean && t2.clean
      && Probe.equal asm t1.signed_stride t2.signed_stride
    then same_stride_test asm ~n ~array t1 t2
    else extent_test asm ~loop_vars ~n ~array t1 t2
  in
  match primary with
  | Cannot _ when congruence_test asm ~n t1 t2 -> Disjoint
  | r -> r

let certify_exn ?ards (prog : Ir.Types.program) (ph : Ir.Types.phase) loop_path
    : verdict =
  (* The phase's own descriptors describe the candidate when it marks
     the loop the phase already marks, and only that one. *)
  let own =
    match ards with
    | Some ards when Ir.Autopar.marked_paths ph.Ir.Types.nest = [ loop_path ] ->
        Some (Lazy.force ards)
    | _ -> None
  in
  let candidate =
    { ph with Ir.Types.nest = Ir.Autopar.set_parallel ph.Ir.Types.nest loop_path }
  in
  let t =
    match own with
    | Some (a : Ard.phase) -> a.ctx
    | None -> Ir.Phase.analyze prog candidate
  in
  match t.par with
  | None -> Unknown "no loop at the requested path"
  | Some par ->
      let asm = t.assume in
      let n = par.count in
      if Probe.le asm n Expr.one then
        (* at most one iteration: nothing to race with *)
        Proved_independent
      else begin
        let loop_vars =
          List.map (fun (l : Ir.Phase.loop_info) -> l.var) t.loops
        in
        (* loops nested strictly inside the candidate *)
        let inner_vars =
          let cand = Ir.Autopar.loop_at candidate.Ir.Types.nest loop_path in
          let rec go acc = function
            | Ir.Types.Assign _ -> acc
            | Ir.Types.Loop l ->
                List.fold_left go (l.Ir.Types.var :: acc) l.Ir.Types.body
          in
          List.fold_left go [] cand.Ir.Types.body
        in
        let clean_expr e =
          List.for_all (fun v -> not (List.mem v loop_vars)) (Expr.vars e)
        in
        (* Only sites inside the candidate loop participate in its
           cross-iteration dependences; the enumeration oracle likewise
           ignores accesses outside the marked loop. *)
        let inside (s : Ir.Phase.site) = List.mem par.var s.Ir.Phase.enclosing in
        let enclosed =
          match own with
          | Some a ->
              List.concat
                (List.map2
                   (fun s d -> if inside s then [ d ] else [])
                   t.sites (Lazy.force a.ards))
          | None ->
              List.filter_map
                (fun s -> if inside s then Some (Ard.of_site t s) else None)
                t.sites
        in
        let arrays =
          List.sort_uniq String.compare (List.map (fun (a : Ard.t) -> a.array) enclosed)
        in
        let enclosed = { Ard.ctx = t; ards = Lazy.from_val enclosed } in
        let unknown = ref None in
        let note r = if !unknown = None then unknown := Some r in
        let conflict = ref None in
        List.iter
          (fun array ->
            if !conflict = None then begin
              let pd = Pd.of_phase enclosed ~array in
              if not (Pd.pd_mix pd).Access_mix.writes then
                (* read-only in this loop: cannot carry a dependence *)
                ()
              else if not pd.Pd.exact then
                note
                  (Printf.sprintf
                     "%s degraded to a whole-array descriptor (non-affine \
                      subscript)"
                     array)
              else begin
                let id = Id.of_pd pd in
                if not (Id.rectangular id) then
                  note
                    (Printf.sprintf
                       "%s has non-uniform strides (symbolic, non-rectangular \
                        descriptor)"
                       array)
                else begin
                  let trows =
                    List.map
                      (fun ((g : Id.group), (r : Id.row)) ->
                        {
                          row = r;
                          seq_dims = g.Id.seq_dims;
                          signed_stride =
                            Expr.mul (Expr.int r.Id.par_sign) r.Id.par_stride;
                          dense = Id.dense id r;
                          clean =
                            clean_expr r.Id.offset0
                            && clean_expr r.Id.par_stride;
                          inner =
                            List.for_all
                              (fun (d : Pd.dim) ->
                                List.for_all
                                  (fun v -> List.mem v inner_vars)
                                  d.Pd.vars)
                              g.Id.seq_dims;
                        })
                      (Id.tagged_rows id)
                  in
                  List.iter
                    (fun (t1, t2) ->
                      if !conflict = None then
                        let m1 = t1.row.Id.mix and m2 = t2.row.Id.mix in
                        if not (m1.Access_mix.writes || m2.Access_mix.writes)
                        then ()
                        else
                          match
                            pair_test asm ~loop_vars ~n ~array t1 t2
                          with
                          | Disjoint -> ()
                          | Conflict w -> conflict := Some w
                          | Cannot r -> note r)
                    (Id.pairs ~self:true trows)
                end
              end
            end)
          arrays;
        match (!conflict, !unknown) with
        | Some w, _ -> Proved_dependent w
        | None, Some r -> Unknown r
        | None, None -> Proved_independent
      end

let certify ?ards prog ph ~loop_path =
  try certify_exn ?ards prog ph loop_path
  with e when recoverable e ->
    Unknown ("descriptor construction failed: " ^ Printexc.to_string e)

type source = Certified | Sampled

type probe = {
  path : int list;
  var : string;
  verdict : verdict;
  sampled : bool option;
}

type decision = {
  phase : Ir.Types.phase;
  chosen : (int list * source) option;
  probes : probe list;
}

let mismatch p =
  match (p.verdict, p.sampled) with
  | Proved_independent, Some false | Proved_dependent _, Some true -> true
  | _ -> false

let decide ~envs prog (ph : Ir.Types.phase) =
  let nest = ph.Ir.Types.nest in
  let rec scan probes = function
    | [] -> (None, probes)
    | path :: rest -> (
        let verdict = certify prog ph ~loop_path:path in
        (* Sampled even when the certifier has decided, so that a
           contradiction surfaces as a {!mismatch} instead of being
           silently resolved. *)
        let sampled = Ir.Autopar.sampled ~envs prog ph ~loop_path:path in
        let probes =
          { path; var = Ir.Autopar.loop_var_at nest path; verdict; sampled }
          :: probes
        in
        match (verdict, sampled) with
        | Proved_independent, _ -> (Some (path, Certified), probes)
        | Unknown _, Some true -> (Some (path, Sampled), probes)
        | _ -> scan probes rest)
  in
  let chosen, probes = scan [] (Ir.Autopar.loop_paths nest) in
  let nest =
    match chosen with
    | Some (path, _) -> Ir.Autopar.set_parallel nest path
    | None -> Ir.Autopar.clear_markings nest
  in
  { phase = { ph with Ir.Types.nest }; chosen; probes = List.rev probes }

let verdict_to_string = function
  | Proved_independent -> "independent"
  | Proved_dependent w ->
      Printf.sprintf "dependent (%s on %s at distance %+d)" w.w_kind w.w_array
        w.w_distance
  | Unknown r -> "unknown (" ^ r ^ ")"

let pp_verdict ppf v = Format.pp_print_string ppf (verdict_to_string v)
