let samples = 64
(* The calling domain's base state; a fresh domain starts from the
   default seed. *)
let probe_state = Domain.DLS.new_key (fun () -> Random.State.make [| 0x5eed; 2024 |])

(* Several artifact stores hold answers derived from the probe stream
   (this module's sample bank and predicate memo, Range's bound memo,
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
   so each set's samples are drawn once, lazily and in stream order,
   into a bank: the variable names once, then one compact [int array]
   row per sample.  A draw that raises is stored and re-raised at its
   index, where a fresh fork would raise it too; no later row is ever
   asked for, because every sampling loop stops at its first exception.
   Re-seeding flushes the store; an overflow drop only makes the next
   query fork the base state again and redraw the same rows.  DESIGN.md
   section 16.4 has the parity argument. *)
type bank = {
  asm : Assume.t;
  names : string array;  (* [Assume.vars asm]: row slot j binds names.(j) *)
  fork : Random.State.t;  (* the stream just past the last drawn row *)
  mutable rows : int array array;  (* the first [drawn] are filled *)
  mutable drawn : int;
  mutable failure : exn option;  (* raised by the draw of row [drawn] *)
}

let banks : bank Artifact.store = Artifact.store "probe.bank"

let bank asm =
  Artifact.find banks (Assume.key asm) (fun () ->
      {
        asm;
        names = Array.of_list (Assume.vars asm);
        fork = Random.State.copy (Domain.DLS.get probe_state);
        rows = [||];
        drawn = 0;
        failure = None;
      })

let row b i =
  while b.drawn <= i do
    Option.iter raise b.failure;
    match Assume.sample ~state:b.fork b.asm with
    | env ->
        if b.drawn = Array.length b.rows then begin
          let rows = Array.make (max samples (2 * b.drawn)) [||] in
          Array.blit b.rows 0 rows 0 b.drawn;
          b.rows <- rows
        end;
        b.rows.(b.drawn) <- Array.map (Env.find env) b.names;
        b.drawn <- b.drawn + 1
    | exception e ->
        b.failure <- Some e;
        raise e
  done;
  b.rows.(i)

let env_of b row =
  Env.ephemeral (Env.of_list (List.combine (Array.to_list b.names) (Array.to_list row)))

let sample asm i =
  let b = bank asm in
  env_of b (row b i)

(* Bounded memo for the public predicates: probes are deterministic
   given the seed policy, and the analysis re-asks the same questions
   (stride comparisons, offset orders) thousands of times. *)
let memo : bool Artifact.store = Artifact.store "probe.memo"

let memoized tag asm a b compute =
  Artifact.find memo
    Artifact.Key.(list [ int tag; Assume.key asm; expr a; expr b ])
    compute

let forall_count = Metrics.counter "probe.forall"

(* Build [test] once for [asm]'s bank, then run it on the bank's first
   [samples] rows; [true] if it holds on every one, [false] if it
   fails somewhere or some draw or evaluation raised an evaluation
   error.  Every row is visited until the first exception, as a loop
   over fresh draws would, so an exception this does not catch
   ([Qnum.Overflow]) escapes at the same sample. *)
let over_bank asm test =
  let b = bank asm in
  let test = test b in
  let ok = ref true in
  (try
     for i = 0 to samples - 1 do
       if not (test (row b i)) then ok := false
     done
   with Expr.Non_integral _ | Env.Unbound _ | Division_by_zero | Qnum.Division_by_zero ->
     ok := false);
  !ok

let rows asm test = over_bank asm (fun b -> test b.names)

(* The predicates compile their operands once per query and evaluate
   them straight off each row: no [Env.t] is built. *)
let forall asm test =
  Metrics.incr forall_count;
  over_bank asm (fun b -> test (Env.compile b.names))

let equal asm a b =
  Expr.equal a b
  || memoized 0 asm a b (fun () ->
         forall asm (fun compile ->
             let a = compile a and b = compile b in
             fun r -> Qnum.equal (a r) (b r)))

let is_zero asm e =
  Expr.is_zero e
  || forall asm (fun compile ->
         let e = compile e in
         fun r -> Qnum.is_zero (e r))

(* The signs seen so far, as a 3-bit mask: bit [s + 1] for sign [s]. *)
let sign asm e =
  let seen = ref 0 in
  let ok =
    forall asm (fun compile ->
        let e = compile e in
        fun r ->
          seen := !seen lor (1 lsl (Qnum.sign (e r) + 1));
          true)
  in
  if not ok then None
  else match !seen with 1 -> Some (-1) | 2 -> Some 0 | 4 -> Some 1 | _ -> None

let nonneg asm e =
  memoized 1 asm e Expr.zero (fun () ->
      forall asm (fun compile ->
          let e = compile e in
          fun r -> Qnum.sign (e r) >= 0))

let le asm a b = nonneg asm (Expr.sub b a)

let lt asm a b =
  forall asm (fun compile ->
      let a = compile a and b = compile b in
      fun r -> Qnum.compare (a r) (b r) < 0)

let integral asm e =
  memoized 3 asm e Expr.zero (fun () ->
      forall asm (fun compile ->
          let e = compile e in
          fun r -> Qnum.is_integer (e r)))

let divides asm d e =
  memoized 2 asm d e (fun () ->
      forall asm (fun compile ->
          let d = compile d and e = compile e in
          fun r ->
            let dv = d r in
            (not (Qnum.is_zero dv)) && Qnum.is_integer (Qnum.div (e r) dv)))

(* [Assume.range_in_env] on a row of [b]: [v]'s concrete range once the
   variables before it are fixed, its bounds counted as evaluations. *)
let range_in_row b v =
  match Assume.domain_of b.asm v with
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
  over_bank asm (fun b ->
      let range = range_in_row b v and f = Expr.compile (Env.slot b.names) e in
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
      fun r -> match range r with None -> false | Some (lo, hi) -> test lo hi (at r))

let constant_in asm v e =
  if not (Expr.mem_var v e) then true
  else begin
    Metrics.incr forall_count;
    along asm v e (fun lo hi at ->
        let reference = at lo in
        let steps = min 4 (hi - lo) in
        let rec check k = k > steps || (Qnum.equal (at (lo + k)) reference && check (k + 1)) in
        check 1)
  end
