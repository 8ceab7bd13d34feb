let samples = 64
(* The calling domain's base state; a fresh domain starts from the
   default seed. *)
let probe_state = Domain.DLS.new_key (fun () -> Random.State.make [| 0x5eed; 2024 |])

(* Several artifact stores hold answers derived from the probe stream
   (this module's sample banks and their columns, Range's bound memo,
   the symmetry and LCG stores): re-seeding drops every store on entry
   and exit, so no cached answer derived under one seed survives into
   a run under another. *)
let with_seed seed f =
  let saved = Domain.DLS.get probe_state in
  Domain.DLS.set probe_state (Random.State.make [| seed |]);
  Artifact.clear_all ();
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set probe_state saved;
      Artifact.clear_all ())
    f

(* The base state is never advanced by queries.  Sample [i] of an
   assumption set is the [i]-th draw of one fork of the base state, so
   a probe's answer depends only on the seed policy and the question
   asked - never on how many other probes ran first - which is what
   lets the symbolic and enumerated accountings, whose probe traffic
   differs, still agree on every shared decision.

   Every query over the same assumption set would draw the same stream,
   so each set's samples are drawn once, lazily and in stream order, by
   the set's compiled sampler into a bank: the variable names once,
   then one compact [int array] row per sample.  A draw that raises is
   stored and re-raised at its index, where a fresh fork would raise it
   too; no later row is ever asked for.  Re-seeding flushes the store;
   an overflow drop only makes the next query fork the base state again
   and redraw the same rows.

   A bank also keeps its operands' columns: an expression evaluated
   once on the bank's rows, in row order, up to the first row whose
   draw or evaluation raised.  Every predicate is a loop over its
   operands' columns, which settles on the exception a row-by-row loop
   would have met first.  DESIGN.md section 16.4 has the parity
   argument. *)
type column = {
  ints : int array;  (* row [i]'s value, for the filled rows before [stop], when integral *)
  exact : Qnum.t array;  (* those rows' values when one is rational, else [||] *)
  stop : int;  (* the first row that raised, [samples] if none did *)
  raised : exn;  (* what row [stop] raised *)
}

module Columns = Hashtbl.Make (Int)

type bank = {
  names : string array;  (* [Assume.vars]: row slot j binds names.(j) *)
  draw : Random.State.t -> int array;  (* [Assume.sampler] *)
  fork : Random.State.t;  (* the stream just past the last drawn row *)
  mutable rows : int array array;  (* the first [drawn] are filled *)
  mutable drawn : int;
  mutable failure : exn option;  (* raised by the draw of row [drawn] *)
  columns : column Columns.t;  (* by [Expr.id] *)
  column_stats : Metrics.local;
}

let banks : bank Artifact.store = Artifact.store "probe.bank"
let column_cells = Metrics.cache "probe.column"

(* Each bank's column bound.  A bank that reaches it drops its columns
   wholesale and refills, as an artifact store does; DESIGN.md section
   14.3 has the measured peaks. *)
let max_columns = 256

let bank asm =
  Artifact.find banks (Assume.key asm) (fun () ->
      {
        names = Array.of_list (Assume.vars asm);
        draw = Assume.sampler asm;
        fork = Random.State.copy (Domain.DLS.get probe_state);
        rows = [||];
        drawn = 0;
        failure = None;
        columns = Columns.create 16;
        column_stats = Metrics.local_cache column_cells;
      })

let row b i =
  while b.drawn <= i do
    Option.iter raise b.failure;
    match b.draw b.fork with
    | r ->
        if b.drawn = Array.length b.rows then begin
          let rows = Array.make (max samples (2 * b.drawn)) [||] in
          Array.blit b.rows 0 rows 0 b.drawn;
          b.rows <- rows
        end;
        b.rows.(b.drawn) <- r;
        b.drawn <- b.drawn + 1
    | exception e ->
        b.failure <- Some e;
        raise e
  done;
  b.rows.(i)

let sample asm i =
  let b = bank asm in
  let row = row b i in
  Env.ephemeral (Env.of_list (List.combine (Array.to_list b.names) (Array.to_list row)))

(* [e] evaluated on rows [from], [from + 1], ... until the first
   raise.  A constant is its value on every row that draws, with no
   evaluation: the row is still drawn first, so a draw that raises ends
   its column as it ends every other. *)
let fill b e from =
  let eval =
    match Expr.to_q e with
    | Some q -> Fun.const q
    | None -> Env.compile b.names e
  in
  let ints = Array.make samples 0 and exact = ref [||] in
  let rec go i =
    if i = samples then { ints; exact = !exact; stop = samples; raised = Exit }
    else
      match eval (row b i) with
      | q ->
          if Qnum.is_integer q then ints.(i) <- Qnum.to_int q
          else if Array.length !exact = 0 then
            exact := Array.init samples (fun j -> if j < i then Qnum.of_int ints.(j) else Qnum.zero);
          if Array.length !exact > 0 then !exact.(i) <- q;
          go (i + 1)
      | exception x -> { ints; exact = !exact; stop = i; raised = x }
  in
  go from

let column b e =
  match Columns.find_opt b.columns (Expr.id e) with
  | Some c ->
      Metrics.hit_local b.column_stats;
      c
  | None ->
      Metrics.miss_local b.column_stats;
      let c = fill b e 0 in
      if Columns.length b.columns >= max_columns then Columns.reset b.columns;
      Columns.replace b.columns (Expr.id e) c;
      c

let rational c = Array.length c.exact > 0
let value c i = if rational c then c.exact.(i) else Qnum.of_int c.ints.(i)
let sign_at c i = if rational c then Qnum.sign c.exact.(i) else Int.compare c.ints.(i) 0

(* Whether [f] holds on every row from [i]. *)
let rec every i f = i = samples || (f i && every (i + 1) f)

(* The answer of a loop that met [x]: an evaluation error makes it
   [false], anything else ([Qnum.Overflow], [Invalid_argument] from an
   over-wide range) escapes. *)
let refuted x =
  match x with
  | Expr.Non_integral _ | Env.Unbound _ | Division_by_zero | Qnum.Division_by_zero -> false
  | x -> raise x

(* [test] on [e]'s column, which reached every row. *)
let unary asm e test =
  let c = column (bank asm) e in
  if c.stop < samples then refuted c.raised else test c

(* [test] on two columns whose operands each row evaluates in the order
   given: the first raise ends the loop, and at a row where both raise
   the operand evaluated first is the one that raised. *)
let binary asm first second test =
  let b = bank asm in
  let f = column b first in
  let s = column b second in
  if f.stop < samples || s.stop < samples then refuted (if f.stop <= s.stop then f.raised else s.raised)
  else test f s

let forall_count = Metrics.counter "probe.forall"
let affirmed_count = Metrics.counter "probe.affirmed"

(* A query the samples alone decide: counted in [probe.forall], and in
   [probe.affirmed] when the samples say yes. *)
let decided query =
  Metrics.incr forall_count;
  let yes = query () in
  if yes then Metrics.incr affirmed_count;
  yes

(* Each row evaluates [b] before [a]: the order of a call [f (a r)
   (b r)], whose arguments OCaml evaluates right to left, and of the
   fresh-fork reference the tests compare against. *)
let ordered asm ok a b =
  binary asm b a (fun b a ->
      if rational a || rational b then every 0 (fun i -> ok (Qnum.compare (value a i) (value b i)))
      else every 0 (fun i -> ok (Int.compare a.ints.(i) b.ints.(i))))

let equal asm a b =
  Expr.equal a b
  || decided (fun () ->
         binary asm b a (fun b a ->
             if rational a || rational b then every 0 (fun i -> Qnum.equal (value a i) (value b i))
             else every 0 (fun i -> a.ints.(i) = b.ints.(i))))

(* A rational column has a row that is not an integer, hence not 0. *)
let is_zero asm e =
  Expr.is_zero e
  || decided (fun () ->
         unary asm e (fun c -> (not (rational c)) && every 0 (fun i -> c.ints.(i) = 0)))

(* The signs seen, as a 3-bit mask: bit [s + 1] for sign [s]. *)
let sign asm e =
  let seen = ref 0 in
  let one_sign =
    decided (fun () ->
        unary asm e (fun c ->
            for i = 0 to samples - 1 do
              seen := !seen lor (1 lsl (sign_at c i + 1))
            done;
            !seen land (!seen - 1) = 0))
  in
  if one_sign then Some (match !seen with 1 -> -1 | 2 -> 0 | _ -> 1) else None

let nonneg asm e = decided (fun () -> unary asm e (fun c -> every 0 (fun i -> sign_at c i >= 0)))
let le asm a b = nonneg asm (Expr.sub b a)
let lt asm a b = decided (fun () -> ordered asm (fun c -> c < 0) a b)
let integral asm e = decided (fun () -> unary asm e (fun c -> not (rational c)))

(* A row evaluates [d], and [e] only where [d] is not 0; a quotient may
   overflow, so the rows are tested in order.  Where [e] raised on a
   row whose [d] is 0, that raise never happened: [e]'s column is
   continued from the next row that needs it. *)
let divides asm d e =
  decided (fun () ->
      let b = bank asm in
      let dc = column b d in
      let rec walk ec i ok =
        if i = samples then ok
        else if i = dc.stop then refuted dc.raised
        else
          let dv = value dc i in
          if Qnum.is_zero dv then walk ec (i + 1) false
          else if i > ec.stop then walk (fill b e i) i ok
          else if i = ec.stop then refuted ec.raised
          else walk ec (i + 1) (Qnum.is_integer (Qnum.div (value ec i) dv) && ok)
      in
      walk (column b e) 0 true)

(* The row loop of [along]: [test] on the first [samples] rows, [false]
   if it fails somewhere or an evaluation error is raised.  Every row
   is visited until the first exception, as in a column. *)
let over_rows b test =
  let ok = ref true in
  (try
     for i = 0 to samples - 1 do
       if not (test (row b i)) then ok := false
     done
   with x -> ok := refuted x);
  !ok

(* [Assume.range_in_env] on a row of [b]: [v]'s concrete range once the
   variables before it are fixed, its bounds counted as evaluations. *)
let range_in_row asm b v =
  match Assume.domain_of asm v with
  | None -> fun _ -> None
  | Some (Assume.Int_range (lo, hi)) -> fun _ -> Some (lo, hi)
  | Some (Assume.Pow2_of w) -> (
      match Env.slot b.names w with
      | Expr.Slot j ->
          fun r ->
            let e = 1 lsl r.(j) in
            Some (e, e)
      | _ -> fun _ -> raise (Env.Unbound w))
  | Some (Assume.Expr_range (lo, hi)) ->
      let lo = Env.compile_int b.names lo and hi = Env.compile_int b.names hi in
      fun r ->
        let hi = hi r in
        let lo = lo r in
        Some (lo, hi)

let along asm v e test =
  let b = bank asm in
  let range = range_in_row asm b v and f = Expr.compile (Env.slot b.names) e in
  (* [e] at [v = x], every other variable read off the row.  [v] has
     a slot whenever it has a range: the names are [asm]'s. *)
  let at =
    match Env.slot b.names v with
    | Expr.Slot j ->
        let swept = Array.make (Array.length b.names) 0 in
        fun r x ->
          Array.blit r 0 swept 0 (Array.length r);
          swept.(j) <- x;
          f swept
    | _ -> fun r _ -> f r
  in
  over_rows b (fun r -> match range r with None -> false | Some (lo, hi) -> test lo hi (at r))

let constant_in asm v e =
  (not (Expr.mem_var v e))
  || decided (fun () ->
         along asm v e (fun lo hi at ->
             let reference = at lo in
             let steps = min 4 (hi - lo) in
             let rec check k = k > steps || (Qnum.equal (at (lo + k)) reference && check (k + 1)) in
             check 1))
