let samples = ref 64
let probe_state = ref (Random.State.make [| 0x5eed; 2024 |])

(* Artifact stores whose contents depend on the probe stream (this
   module's sample bank and predicate memo, Range's bound memo, the
   symmetry and LCG stores) are created volatile: advancing the artifact generation
   whenever the stream is re-seeded flushes them lazily, so no cached
   answer derived under one seed survives into a run under another. *)
let with_seed seed f =
  let saved = !probe_state in
  probe_state := Random.State.make [| seed |];
  Artifact.new_generation ();
  Fun.protect
    ~finally:(fun () ->
      probe_state := saved;
      Artifact.new_generation ())
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
   The store is volatile, so re-seeding flushes it; a capacity drop
   only makes the next query fork the base state again and redraw the
   same rows.  DESIGN.md section 16.4 has the parity argument. *)
type bank = {
  asm : Assume.t;
  names : string array;  (* [Assume.vars asm]: row slot j binds names.(j) *)
  fork : Random.State.t;  (* the stream just past the last drawn row *)
  mutable rows : int array array;  (* the first [drawn] are filled *)
  mutable drawn : int;
  mutable failure : exn option;  (* raised by the draw of row [drawn] *)
}

let banks : bank Artifact.store =
  Artifact.store ~capacity:1024 ~volatile:true "probe.bank"

let bank asm =
  Artifact.find banks (Assume.key asm) (fun () ->
      {
        asm;
        names = Array.of_list (Assume.vars asm);
        fork = Random.State.copy !probe_state;
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
          let rows = Array.make (max !samples (2 * b.drawn)) [||] in
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

(* A row's value for [v]: the last binding wins, as in an [Env.t]. *)
let find names row v =
  let rec go j =
    if j < 0 then raise (Env.Unbound v)
    else if String.equal names.(j) v then row.(j)
    else go (j - 1)
  in
  go (Array.length names - 1)

let env_of b row =
  Env.ephemeral (Env.of_list (List.combine (Array.to_list b.names) (Array.to_list row)))

let sample asm i =
  let b = bank asm in
  env_of b (row b i)

(* Bounded memo for the public predicates: probes are deterministic
   given the seed policy, and the analysis re-asks the same questions
   (stride comparisons, offset orders) thousands of times. *)
let memo : bool Artifact.store =
  Artifact.store ~capacity:200_000 ~volatile:true "probe.memo"

let memoized tag asm a b compute =
  Artifact.find memo
    Artifact.Key.(list [ int tag; Assume.key asm; expr a; expr b ])
    compute

let forall_count = Metrics.counter "probe.forall"

(* Run [f] on the bank's first [!samples] rows; [true] if it holds on
   every one, [false] if it fails somewhere or some draw or evaluation
   raised an evaluation error.  Every row is visited until the first
   exception, as a loop over fresh draws would, so an exception this
   does not catch ([Qnum.Overflow]) escapes at the same sample. *)
let forall_rows asm f =
  Metrics.incr forall_count;
  let b = bank asm in
  let ok = ref true in
  (try
     for i = 0 to !samples - 1 do
       if not (f b (row b i)) then ok := false
     done
   with Expr.Non_integral _ | Env.Unbound _ | Division_by_zero | Qnum.Division_by_zero ->
     ok := false);
  !ok

(* The expression predicates evaluate straight off a row: [f] receives
   the row's evaluator, and no [Env.t] is built. *)
let forall asm f = forall_rows asm (fun b r -> f (Env.eval_with (find b.names r)))

let equal asm a b =
  Expr.equal a b
  || memoized 0 asm a b (fun () -> forall asm (fun ev -> Qnum.equal (ev a) (ev b)))

let is_zero asm e = Expr.is_zero e || forall asm (fun ev -> Qnum.is_zero (ev e))

(* The signs seen so far, as a 3-bit mask: bit [s + 1] for sign [s]. *)
let sign asm e =
  let seen = ref 0 in
  let ok =
    forall asm (fun ev ->
        seen := !seen lor (1 lsl (Qnum.sign (ev e) + 1));
        true)
  in
  if not ok then None
  else match !seen with 1 -> Some (-1) | 2 -> Some 0 | 4 -> Some 1 | _ -> None

let nonneg asm e =
  memoized 1 asm e Expr.zero (fun () -> forall asm (fun ev -> Qnum.sign (ev e) >= 0))
let le asm a b = nonneg asm (Expr.sub b a)
let lt asm a b = forall asm (fun ev -> Qnum.compare (ev a) (ev b) < 0)
let integral asm e =
  memoized 3 asm e Expr.zero (fun () -> forall asm (fun ev -> Qnum.is_integer (ev e)))

let divides asm d e =
  memoized 2 asm d e (fun () ->
      forall asm (fun ev ->
          let dv = ev d in
          (not (Qnum.is_zero dv)) && Qnum.is_integer (Qnum.div (ev e) dv)))

let constant_in asm v e =
  if not (Expr.mem_var v e) then true
  else
    forall_rows asm (fun b r ->
        let env = env_of b r in
        match Assume.range_in_env asm env v with
        | None -> false
        | Some (lo, hi) ->
            let value_at x = Expr.eval (fun w ->
                if String.equal w v then Qnum.of_int x else Env.lookup env w) e
            in
            let reference = value_at lo in
            let steps = min 4 (hi - lo) in
            let rec check k =
              k > steps
              || (Qnum.equal (value_at (lo + k)) reference && check (k + 1))
            in
            check 1)
