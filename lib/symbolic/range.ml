type direction = Max | Min

let monotonicity asm v e =
  if not (Expr.mem_var v e) then `Const
  else
    let inc = ref true and dec = ref true in
    let ok =
      Probe.along asm v e (fun lo hi at ->
          hi <= lo
          ||
          let steps = min 4 (hi - lo) in
          let rec walk k prev =
            if k > steps then true
            else
              let cur = at (lo + k) in
              let c = Qnum.compare cur prev in
              if c > 0 then dec := false else if c < 0 then inc := false;
              walk (k + 1) cur
          in
          walk 1 (at lo))
    in
    if not ok then `Mixed
    else
      match (!inc, !dec) with
      | true, true -> `Const
      | true, false -> `Inc
      | false, true -> `Dec
      | false, false -> `Mixed

(* Bound expressions of a variable within the assumption set. *)
let bounds_of asm v =
  match Assume.domain_of asm v with
  | Some (Assume.Int_range (lo, hi)) -> Some (Expr.int lo, Expr.int hi)
  | Some (Assume.Expr_range (lo, hi)) -> Some (lo, hi)
  | Some (Assume.Pow2_of w) ->
      (* 2^w with w ranged: monotone in w, but we treat the var itself as
         atomic; give bounds only when w's range is concrete. *)
      (match Assume.domain_of asm w with
      | Some (Assume.Int_range (lo, hi)) ->
          Some (Expr.int (1 lsl lo), Expr.int (1 lsl hi))
      | _ -> None)
  | None -> None

let eliminate_timer = Metrics.timer "range.eliminate"

let eliminate asm dir ~over e =
  Metrics.with_timer eliminate_timer @@ fun () ->
  let order =
    (* Reverse declaration order, restricted to [over]. *)
    List.rev (List.filter (fun v -> List.mem v over) (Assume.vars asm))
  in
  let result =
    List.fold_left
      (fun acc v ->
        match acc with
        | None -> None
        | Some e ->
            if not (Expr.mem_var v e) then Some e
            else
              let pick_hi =
                match (monotonicity asm v e, dir) with
                | `Const, _ -> Some false
                | `Inc, Max | `Dec, Min -> Some true
                | `Dec, Max | `Inc, Min -> Some false
                | `Mixed, _ -> None
              in
              Option.bind pick_hi (fun hi ->
                  Option.map
                    (fun (lo_e, hi_e) ->
                      Expr.subst v (if hi then hi_e else lo_e) e)
                    (bounds_of asm v)))
      (Some e) order
  in
  (* Validate: the bound must dominate the original on samples. *)
  match result with
  | None -> None
  | Some bound ->
      let ok = match dir with Max -> fun c -> c >= 0 | Min -> fun c -> c <= 0 in
      if Probe.ordered asm ok bound e then Some bound else None

let maximize asm ~over e = eliminate asm Max ~over e
let minimize asm ~over e = eliminate asm Min ~over e
