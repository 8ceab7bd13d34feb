open Symbolic

type cmp = Le | Ge | Eq

type constr = { coeffs : Qnum.t array; cmp : cmp; rhs : Qnum.t }

type problem = {
  n_vars : int;
  objective : Qnum.t array;
  constraints : constr list;
}

type outcome =
  | Optimal of { value : Qnum.t; point : Qnum.t array }
  | Unbounded
  | Infeasible

let constr coeffs cmp rhs = { coeffs; cmp; rhs }

(* Standard-form tableau simplex.  We convert every constraint to
   [a.x + s = b] with slack/artificial variables, run phase 1 to drive
   the artificials out, then phase 2 on the real objective.  Bland's
   anti-cycling rule keeps it finite; rationals keep it exact. *)

type tableau = {
  m : int;  (** rows (constraints) *)
  n : int;  (** columns (all variables incl. slacks/artificials) *)
  a : Qnum.t array array;  (** m x n *)
  b : Qnum.t array;  (** m *)
  c : Qnum.t array;  (** n, objective to maximize *)
  basis : int array;  (** m basic column indices *)
}

let pivot (t : tableau) ~row ~col =
  let piv = t.a.(row).(col) in
  let inv = Qnum.inv piv in
  for j = 0 to t.n - 1 do
    t.a.(row).(j) <- Qnum.mul t.a.(row).(j) inv
  done;
  t.b.(row) <- Qnum.mul t.b.(row) inv;
  for i = 0 to t.m - 1 do
    if i <> row && not (Qnum.is_zero t.a.(i).(col)) then begin
      let f = t.a.(i).(col) in
      for j = 0 to t.n - 1 do
        t.a.(i).(j) <- Qnum.sub t.a.(i).(j) (Qnum.mul f t.a.(row).(j))
      done;
      t.b.(i) <- Qnum.sub t.b.(i) (Qnum.mul f t.b.(row))
    end
  done;
  t.basis.(row) <- col

(* Reduced cost of column j: c_j - c_B . B^-1 A_j (computed against the
   current tableau where basic columns are unit vectors). *)
let reduced_costs (t : tableau) =
  let z = Array.make t.n Qnum.zero in
  for j = 0 to t.n - 1 do
    let acc = ref t.c.(j) in
    for i = 0 to t.m - 1 do
      let cb = t.c.(t.basis.(i)) in
      if not (Qnum.is_zero cb) then
        acc := Qnum.sub !acc (Qnum.mul cb t.a.(i).(j))
    done;
    z.(j) <- !acc
  done;
  z

let objective_value (t : tableau) =
  let acc = ref Qnum.zero in
  for i = 0 to t.m - 1 do
    acc := Qnum.add !acc (Qnum.mul t.c.(t.basis.(i)) t.b.(i))
  done;
  !acc

(* Run simplex iterations until optimal or unbounded. *)
let rec iterate (t : tableau) =
  let rc = reduced_costs t in
  (* Bland: smallest index with positive reduced cost. *)
  let entering = ref (-1) in
  (try
     for j = 0 to t.n - 1 do
       if Qnum.sign rc.(j) > 0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let col = !entering in
    (* Min ratio test, Bland tie-break on basis index. *)
    let best = ref None in
    for i = 0 to t.m - 1 do
      if Qnum.sign t.a.(i).(col) > 0 then begin
        let ratio = Qnum.div t.b.(i) t.a.(i).(col) in
        match !best with
        | None -> best := Some (i, ratio)
        | Some (bi, br) ->
            let c = Qnum.compare ratio br in
            if c < 0 || (c = 0 && t.basis.(i) < t.basis.(bi)) then
              best := Some (i, ratio)
      end
    done;
    match !best with
    | None -> `Unbounded
    | Some (row, _) ->
        pivot t ~row ~col;
        iterate t
  end

let solve (p : problem) : outcome =
  let rows =
    (* Normalize to a.x (cmp) b with b >= 0. *)
    List.map
      (fun ct ->
        if Qnum.sign ct.rhs < 0 then
          {
            coeffs = Array.map Qnum.neg ct.coeffs;
            cmp = (match ct.cmp with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = Qnum.neg ct.rhs;
          }
        else ct)
      p.constraints
  in
  let m = List.length rows in
  let n_slack =
    List.length (List.filter (fun r -> r.cmp <> Eq) rows)
  in
  (* Artificial variables: for Ge and Eq rows. *)
  let n_art =
    List.length (List.filter (fun r -> r.cmp <> Le) rows)
  in
  let n = p.n_vars + n_slack + n_art in
  let a = Array.make_matrix m n Qnum.zero in
  let b = Array.make m Qnum.zero in
  let basis = Array.make m 0 in
  let slack_at = ref p.n_vars and art_at = ref (p.n_vars + n_slack) in
  List.iteri
    (fun i r ->
      Array.iteri (fun j v -> if j < p.n_vars then a.(i).(j) <- v) r.coeffs;
      b.(i) <- r.rhs;
      (match r.cmp with
      | Le ->
          a.(i).(!slack_at) <- Qnum.one;
          basis.(i) <- !slack_at;
          incr slack_at
      | Ge ->
          a.(i).(!slack_at) <- Qnum.minus_one;
          incr slack_at;
          a.(i).(!art_at) <- Qnum.one;
          basis.(i) <- !art_at;
          incr art_at
      | Eq ->
          a.(i).(!art_at) <- Qnum.one;
          basis.(i) <- !art_at;
          incr art_at))
    rows;
  (* Phase 1: maximize -(sum of artificials). *)
  let c1 = Array.make n Qnum.zero in
  for j = p.n_vars + n_slack to n - 1 do
    c1.(j) <- Qnum.minus_one
  done;
  let t = { m; n; a; b; c = c1; basis } in
  (match iterate t with
  | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
  | `Optimal -> ());
  if Qnum.sign (objective_value t) < 0 then Infeasible
  else begin
    (* Drive any lingering artificial out of the basis if possible. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= p.n_vars + n_slack then begin
        let found = ref false in
        for j = 0 to p.n_vars + n_slack - 1 do
          if (not !found) && not (Qnum.is_zero t.a.(i).(j)) then begin
            pivot t ~row:i ~col:j;
            found := true
          end
        done
      end
    done;
    (* Phase 2: real objective; forbid artificials re-entering by
       giving them a strongly negative cost contribution - simpler: we
       zero their columns. *)
    let c2 = Array.make n Qnum.zero in
    Array.iteri (fun j v -> if j < p.n_vars then c2.(j) <- v) p.objective;
    for j = p.n_vars + n_slack to n - 1 do
      (* erase artificial columns so they can never re-enter *)
      for i = 0 to m - 1 do
        t.a.(i).(j) <- Qnum.zero
      done
    done;
    let t2 = { t with c = c2 } in
    match iterate t2 with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let point = Array.make p.n_vars Qnum.zero in
        for i = 0 to m - 1 do
          if t2.basis.(i) < p.n_vars then point.(t2.basis.(i)) <- t2.b.(i)
        done;
        Optimal { value = objective_value t2; point }
  end
