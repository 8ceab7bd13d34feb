(* Tests for the fuzzing subsystem: the generator's well-formedness
   guarantees, the greedy shrinker's contract (preservation of both
   well-formedness and the failure predicate, idempotence), and the
   end-to-end injected-mutation self-test - a deliberately skewed
   descriptor algebra must be caught by the differential battery and
   shrunk to a tiny reproducer. *)

open Symbolic

let unparse = Frontend.Unparse.to_string

(* A program is well-formed when its surface text parses back and the
   full pipeline runs without Error-severity diagnostics. *)
let well_formed p =
  match Core.Pipeline.parse_program ~where:"<wf>" (unparse p) with
  | None -> false
  | Some p' ->
      let t = Core.Pipeline.run p' ~env:(Fuzz.Gen.midpoint_env p') ~h:4 in
      not (Core.Pipeline.degraded t)

let gen_programs ?(profile = Fuzz.Gen.default) ~seed n =
  List.init n (fun i -> Fuzz.Gen.program profile ~seed ~index:i)

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_gen_well_formed () =
  List.iter
    (fun p -> Alcotest.(check bool) p.Ir.Types.prog_name true (well_formed p))
    (gen_programs ~seed:7 40)

let test_gen_deterministic () =
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same source" (unparse a) (unparse b))
    (gen_programs ~seed:11 10)
    (gen_programs ~seed:11 10)

let test_gen_deep () =
  let p = Fuzz.Gen.program Fuzz.Gen.deep ~seed:3 ~index:0 in
  let n = List.length p.Ir.Types.phases in
  Alcotest.(check bool) "50..100 phases" true (n >= 50 && n <= 100);
  Alcotest.(check bool) "well-formed" true (well_formed p)

(* ------------------------------------------------------------------ *)
(* Shrinker *)

(* A structural predicate that real failures resemble: program still
   contains a parallel phase that writes array "A". *)
let keep_structural p =
  well_formed p
  && List.exists
       (fun (ph : Ir.Types.phase) ->
         let rec writes_a (s : Ir.Types.stmt) =
           match s with
           | Loop l -> l.parallel && List.exists writes_a l.body
           | Assign a ->
               List.exists
                 (fun (r : Ir.Types.array_ref) ->
                   r.array = "A" && r.access = Ir.Types.Write)
                 a.refs
         in
         writes_a (Ir.Types.Loop ph.Ir.Types.nest))
       p.Ir.Types.phases

let test_shrink_preserves () =
  let hits = ref 0 in
  List.iter
    (fun p ->
      if keep_structural p then begin
        incr hits;
        let small = Fuzz.Shrink.run ~keep:keep_structural p in
        Alcotest.(check bool) "result still satisfies keep" true
          (keep_structural small);
        Alcotest.(check bool) "result still well-formed" true
          (well_formed small);
        Alcotest.(check bool) "no growth" true
          (Fuzz.Shrink.size small <= Fuzz.Shrink.size p)
      end)
    (gen_programs ~seed:19 30);
  Alcotest.(check bool) "predicate fired on several programs" true (!hits >= 5)

let test_shrink_idempotent () =
  List.iter
    (fun p ->
      if keep_structural p then begin
        let once = Fuzz.Shrink.run ~keep:keep_structural p in
        let twice = Fuzz.Shrink.run ~keep:keep_structural once in
        Alcotest.(check string) "shrink o shrink = shrink" (unparse once)
          (unparse twice)
      end)
    (gen_programs ~seed:23 20)

let test_shrink_non_failing_identity () =
  let p = Fuzz.Gen.program Fuzz.Gen.default ~seed:29 ~index:0 in
  let small = Fuzz.Shrink.run ~keep:(fun _ -> false) p in
  Alcotest.(check string) "keep-false returns input" (unparse p)
    (unparse small)

(* ------------------------------------------------------------------ *)
(* Injected-mutation self-test: skew the symbolic cardinality algebra
   and prove the battery catches it and shrinks the witness to a
   reproducer of at most 12 lines that flips back to passing once the
   mutation is removed. *)

let line_count s =
  String.split_on_char '\n' (String.trim s) |> List.length

let with_skew k f =
  let skew = Lattice.test_card_skew () in
  let saved = !skew in
  Fun.protect
    ~finally:(fun () -> skew := saved)
    (fun () ->
      skew := k;
      f ())

let test_injected_mutation () =
  let enum_parity = Fuzz.Differ.find "enum-parity" in
  let fails p =
    match enum_parity.run p with Fuzz.Differ.Fail _ -> true | _ -> false
  in
  with_skew 1 (fun () ->
      (* the mutation must be caught within a small budget of programs *)
      let witness =
        List.find_opt fails (gen_programs ~seed:42 12)
      in
      match witness with
      | None -> Alcotest.fail "skewed algebra not caught within 12 programs"
      | Some w ->
          let small = Fuzz.Shrink.run ~keep:fails w in
          let text = unparse small in
          Alcotest.(check bool)
            (Printf.sprintf "reproducer is <= 12 lines (got %d):\n%s"
               (line_count text) text)
            true
            (line_count text <= 12);
          Alcotest.(check bool) "reproducer still fails under mutation" true
            (fails small);
          (* removing the mutation makes the same program pass *)
          with_skew 0 (fun () ->
              Alcotest.(check bool) "reproducer passes without mutation" true
                (match enum_parity.run small with
                | Fuzz.Differ.Pass -> true
                | _ -> false)))

(* A clean battery: no differential check fires on unmutated code. *)
let test_battery_clean () =
  List.iter
    (fun p ->
      List.iter
        (fun ((name, v) : string * Fuzz.Differ.verdict) ->
          match v with
          | Fuzz.Differ.Fail d ->
              Alcotest.fail
                (Printf.sprintf "%s fails %s: %s" p.Ir.Types.prog_name name d)
          | _ -> ())
        (Fuzz.Differ.battery p))
    (gen_programs ~seed:5 10)

(* The batteries run on domains of their own; their metrics must reach
   the caller, or [fuzz --profile] reports an empty campaign. *)
let test_campaign_metrics () =
  Metrics.reset ();
  let st =
    Fuzz.Campaign.run
      {
        Fuzz.Campaign.count = 5;
        seed = 42;
        jobs = 2;
        wall_cap = 0.;
        out_dir = Filename.get_temp_dir_name ();
        skew = 0;
      }
  in
  Alcotest.(check int) "ran" 5 st.s_ran;
  let calls =
    Option.fold ~none:0 ~some:fst
      (List.assoc_opt "pipeline.run" (Metrics.snapshot ()).Metrics.timers)
  in
  Alcotest.(check bool) (Printf.sprintf "pipeline.run calls %d > 0" calls) true (calls > 0)

(* exec-parity skips a plan whose simulated replay already reads stale
   and counts it in [fuzz.stale_plans]: the counter rises by one
   exactly when {!Exec.Validate}'s verdict on the check's own pipeline
   is [Stale].  The row-then-column program is stale through copy-in
   elision (its head phase reads each cell before writing it); the
   seed-42 default programs hold stale and clean plans both. *)
let rowcol =
  {|program rowcol
param N = 8..8
real A(N,N)

phase ROWS:
doall i = 0, N - 1
  do j = 0, N - 1
    A(i,j) = A(i,j)
  end
end

phase COLS:
doall j = 0, N - 1
  do i = 0, N - 1
    A(i,j) = A(i,j)
  end
end
|}

let stale_plans () =
  Option.value ~default:0
    (List.assoc_opt "fuzz.stale_plans" (Metrics.snapshot ()).Metrics.counters)

let test_stale_plans_counted () =
  let exec_parity = Fuzz.Differ.find "exec-parity" in
  let progs =
    Option.get (Core.Pipeline.parse_program ~where:"<rowcol>" rowcol)
    :: gen_programs ~seed:42 12
  in
  let stale, clean =
    List.fold_left
      (fun (stale, clean) (p : Ir.Types.program) ->
        let t = Core.Pipeline.run p ~env:(Fuzz.Gen.midpoint_env p) ~h:Fuzz.Differ.h in
        let rounds = if p.repeats then 2 else 1 in
        let is_stale =
          match Exec.Validate.verdict (Exec.Validate.run ~rounds t.lcg t.plan) with
          | Stale -> true
          | Pass | Checked_nothing -> false
          | exception Exec.Runner.Unsupported _ -> false
        in
        let before = stale_plans () in
        ignore (exec_parity.run p);
        Alcotest.(check int) (p.prog_name ^ ": fuzz.stale_plans rise")
          (Bool.to_int is_stale) (stale_plans () - before);
        if is_stale then (stale + 1, clean) else (stale, clean + 1))
      (0, 0) progs
  in
  Alcotest.(check bool) (Printf.sprintf "stale %d and clean %d plans seen" stale clean)
    true (stale >= 2 && clean > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "programs are well-formed" `Quick
            test_gen_well_formed;
          Alcotest.test_case "seeded determinism" `Quick test_gen_deterministic;
          Alcotest.test_case "deep profile" `Slow test_gen_deep;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "preserves keep + well-formedness" `Quick
            test_shrink_preserves;
          Alcotest.test_case "idempotent" `Quick test_shrink_idempotent;
          Alcotest.test_case "identity when keep never holds" `Quick
            test_shrink_non_failing_identity;
        ] );
      ( "differential",
        [
          Alcotest.test_case "clean battery on clean code" `Slow
            test_battery_clean;
          Alcotest.test_case "injected mutation caught and shrunk" `Slow
            test_injected_mutation;
          Alcotest.test_case "campaign metrics reach the caller" `Quick
            test_campaign_metrics;
          Alcotest.test_case "stale plans counted, not found" `Quick
            test_stale_plans_counted;
        ] );
    ]
