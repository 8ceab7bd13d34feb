(* Differential tests for the static race certifier: every symbolic
   verdict is checked against the dynamic enumeration oracle
   (Ir.Autopar.independent) under sampled parameter environments.  A
   disagreement in either direction is a soundness bug, not a precision
   loss, so these tests accept zero mismatches. *)

open Symbolic
open Ir
module Racecheck = Descriptor.Racecheck

let v = Expr.var
let i = Expr.int

let params_n lo hi = Assume.of_list [ ("N", Assume.Int_range (lo, hi)) ]

let one_phase ?(params = params_n 8 24) ?(arrays = []) nest =
  Build.program ~name:"t" ~params ~arrays [ Build.phase "P" nest ]

let verdict =
  Alcotest.testable Racecheck.pp_verdict (fun a b ->
      match (a, b) with
      | Racecheck.Proved_independent, Racecheck.Proved_independent -> true
      | Racecheck.Proved_dependent _, Racecheck.Proved_dependent _ -> true
      | Racecheck.Unknown _, Racecheck.Unknown _ -> true
      | _ -> false)

let certify prog =
  Racecheck.certify prog (List.hd prog.Types.phases) ~loop_path:[]

(* ------------------------------------------------------------------ *)
(* Crafted programs: one per verdict class *)

let test_stride_exceeds_span () =
  (* A(4i + c), c = 0..3: iteration regions [4i, 4i+3] tile exactly *)
  let prog =
    one_phase
      ~arrays:[ Build.array "A" [ Expr.mul (i 4) (v "N") ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [
            do_ "c" ~lo:(int 0) ~hi:(int 3)
              [ assign [ write "A" [ (int 4 * var "k") + var "c" ] ] ];
          ])
  in
  Alcotest.check verdict "tiled writes independent" Racecheck.Proved_independent
    (certify prog)

let test_recurrence_dependent () =
  (* read A(k-1), write A(k): flow dependence at distance 1 *)
  let prog =
    one_phase
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 1) ~hi:(v "N" - int 1)
          [
            assign [ read "A" [ var "k" - int 1 ]; write "A" [ var "k" ] ];
          ])
  in
  match certify prog with
  | Racecheck.Proved_dependent w ->
      Alcotest.(check string) "array" "A" w.w_array;
      Alcotest.(check bool) "unit distance" true (abs w.w_distance = 1)
  | other ->
      Alcotest.failf "expected dependence, got %s"
        (Racecheck.verdict_to_string other)

let test_accumulator_dependent () =
  (* every iteration writes S(0): invariant write row *)
  let prog =
    one_phase
      ~arrays:[ Build.array "A" [ v "N" ]; Build.array "S" [ i 1 ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [
            assign
              [ read "A" [ var "k" ]; read "S" [ int 0 ]; write "S" [ int 0 ] ];
          ])
  in
  (match certify prog with
  | Racecheck.Proved_dependent w ->
      Alcotest.(check string) "array" "S" w.w_array
  | other ->
      Alcotest.failf "expected dependence, got %s"
        (Racecheck.verdict_to_string other))

let test_overlapping_spans_dependent () =
  (* write A(2k + c), c = 0..3: consecutive regions share two cells *)
  let prog =
    one_phase
      ~arrays:[ Build.array "A" [ Expr.mul (i 3) (v "N") ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [
            do_ "c" ~lo:(int 0) ~hi:(int 3)
              [ assign [ write "A" [ (int 2 * var "k") + var "c" ] ] ];
          ])
  in
  match certify prog with
  | Racecheck.Proved_dependent w ->
      Alcotest.(check string) "kind" "write-write" w.w_kind
  | other ->
      Alcotest.failf "expected dependence, got %s"
        (Racecheck.verdict_to_string other)

let test_nonaffine_unknown () =
  (* quadratic subscript: whole-array descriptor, outside the class *)
  let prog =
    one_phase
      ~arrays:[ Build.array "A" [ Expr.mul (v "N") (v "N") ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" * var "k" ] ] ])
  in
  match certify prog with
  | Racecheck.Unknown _ -> ()
  | other ->
      Alcotest.failf "expected unknown, got %s"
        (Racecheck.verdict_to_string other)

let test_read_only_independent () =
  let prog =
    one_phase
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ read "A" [ int 0 ] ] ])
  in
  Alcotest.check verdict "shared reads race-free" Racecheck.Proved_independent
    (certify prog)

(* ------------------------------------------------------------------ *)
(* Congruence (residue-class) separation: rows whose sequential spans
   overlap massively but whose addresses stay in per-iteration residue
   classes mod the matrix row length *)

let test_congruence_rows_of_matrix () =
  (* U(r + N*c), parallel r, sequential c: iteration r only ever
     touches addresses = r (mod N).  The span-based tests cannot
     separate the rows (spans ~ N^2 dwarf the offset gap), the
     congruence closure can. *)
  let prog =
    one_phase
      ~arrays:[ Build.array "U" [ Expr.mul (v "N") (v "N") ] ]
      Build.(
        do_ "r" ~lo:(int 0) ~hi:(v "N" - int 1)
          [
            do_ "c" ~lo:(int 1) ~hi:(v "N" - int 1)
              [
                assign
                  [
                    read "U" [ var "r" + (var "N" * (var "c" - int 1)) ];
                    write "U" [ var "r" + (var "N" * var "c") ];
                  ];
              ];
          ])
  in
  Alcotest.check verdict "row-confined accesses independent"
    Racecheck.Proved_independent (certify prog)

let test_congruence_row_crossing_not_certified () =
  (* Same shape but the write lands on the *next* row: iterations r and
     r+1 share cells, so a certificate would be unsound.  The verdict
     may be Unknown (the rows are not dense, so no witness either) but
     must never be Proved_independent. *)
  let prog =
    one_phase
      ~arrays:[ Build.array "U" [ Expr.mul (v "N") (Expr.add (v "N") Expr.one) ] ]
      Build.(
        do_ "r" ~lo:(int 0) ~hi:(v "N" - int 1)
          [
            do_ "c" ~lo:(int 1) ~hi:(v "N" - int 1)
              [
                assign
                  [
                    read "U" [ var "r" + (var "N" * (var "c" - int 1)) ];
                    write "U" [ var "r" + int 1 + (var "N" * var "c") ];
                  ];
              ];
          ])
  in
  match certify prog with
  | Racecheck.Proved_independent ->
      Alcotest.fail "row-crossing writes wrongly certified independent"
  | _ -> ()

(* The adi row sweep is the motivating kernel: its N-strided recurrence
   rows were Unknown before the congruence closure.  Pin the upgraded
   verdict and replay it against the dynamic oracle on sampled
   environments. *)
let test_congruence_adi_rowsweep () =
  let prog = (Codes.Registry.find "adi").program in
  let ph =
    List.find
      (fun (p : Types.phase) -> String.equal p.phase_name "ROWSWEEP")
      prog.Types.phases
  in
  (match Racecheck.certify prog ph ~loop_path:[] with
  | Racecheck.Proved_independent -> ()
  | other ->
      Alcotest.failf "adi ROWSWEEP no longer certified: %s"
        (Racecheck.verdict_to_string other));
  let st = Random.State.make [| 19; 99; 7 |] in
  List.iter
    (fun _ ->
      let env = Assume.sample ~state:st prog.Types.params in
      Alcotest.(check bool) "oracle confirms adi ROWSWEEP independence" true
        (Autopar.independent prog env ph ~loop_path:[]))
    [ (); (); () ]

(* ------------------------------------------------------------------ *)
(* Differential harness: certifier vs. dynamic oracle on the registry *)

let sample_envs (prog : Types.program) k =
  let st = Random.State.make [| 7; 23; 1999 |] in
  List.init k (fun _ -> Assume.sample ~state:st prog.Types.params)

(* Exercise every loop of every phase of every benchmark.  The oracle
   answer may legitimately vary by environment when the certifier says
   Unknown; a proof must hold on every sample. *)
let test_differential_registry () =
  let checked = ref 0 and proved = ref 0 in
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let prog = e.program in
      let envs = sample_envs prog 3 in
      List.iter
        (fun (ph : Types.phase) ->
          List.iter
            (fun path ->
              incr checked;
              let oracle env = Autopar.independent prog env ph ~loop_path:path in
              match Racecheck.certify prog ph ~loop_path:path with
              | Racecheck.Proved_independent ->
                  incr proved;
                  List.iter
                    (fun env ->
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "%s/%s: certified independence confirmed by oracle"
                           e.name ph.phase_name)
                        true (oracle env))
                    envs
              | Racecheck.Proved_dependent w ->
                  incr proved;
                  List.iter
                    (fun env ->
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "%s/%s: certified dependence (%s) confirmed by \
                            oracle"
                           e.name ph.phase_name w.w_note)
                        false (oracle env))
                    envs
              | Racecheck.Unknown _ -> ())
            (Autopar.loop_paths ph.nest))
        prog.phases)
    Codes.Registry.all;
  (* the certifier must actually decide a healthy share of the
     benchmark loops - it is the primary procedure, not a corner case *)
  Alcotest.(check bool)
    (Printf.sprintf "decides at least half the loops (%d/%d)" !proved !checked)
    true
    (2 * !proved >= !checked)

(* The declared parallel loop of every benchmark phase must never be
   refuted by the certifier (it may be Unknown, e.g. TFFT2's symbolic
   strides, but a Proved_dependent would mean a racy benchmark). *)
let test_registry_marked_loops_certified () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun (ph : Types.phase) ->
          let paths = Autopar.loop_paths ph.nest in
          List.iter
            (fun path ->
              let rec at (l : Types.loop) = function
                | [] -> l
                | k :: rest ->
                    let inner =
                      List.filter_map
                        (function Types.Loop i -> Some i | _ -> None)
                        l.body
                    in
                    at (List.nth inner k) rest
              in
              if (at ph.nest path).parallel then
                match Racecheck.certify e.program ph ~loop_path:path with
                | Racecheck.Proved_dependent w ->
                    Alcotest.failf "%s/%s marked loop refuted: %s" e.name
                      ph.phase_name w.w_note
                | _ -> ())
            paths)
        e.program.phases)
    Codes.Registry.all

(* ------------------------------------------------------------------ *)
(* Certified marking through Racecheck.decide *)

let strip (prog : Types.program) : Types.program =
  {
    prog with
    phases =
      List.map
        (fun (ph : Types.phase) ->
          { ph with Types.nest = Autopar.clear_markings ph.nest })
        prog.phases;
  }

let par_vars (prog : Types.program) =
  List.map
    (fun ph ->
      let ctx = Phase.analyze prog ph in
      Option.map (fun (l : Phase.loop_info) -> l.var) ctx.par)
    prog.phases

let test_certified_mark_recovers_markings () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let stripped = strip e.program in
      let envs = Core.Lint.default_envs stripped in
      let marked =
        {
          stripped with
          phases =
            List.map
              (fun ph -> (Racecheck.decide ~envs stripped ph).phase)
              stripped.phases;
        }
      in
      List.iter2
        (fun original recovered ->
          match original with
          | Some v ->
              Alcotest.(check (option string))
                (e.name ^ " recovers " ^ v)
                (Some v) recovered
          | None -> ())
        (par_vars e.program) (par_vars marked))
    Codes.Registry.all

let test_no_mismatches_on_registry () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let stripped = strip e.program in
      let envs = Core.Lint.default_envs stripped in
      List.iter
        (fun ph ->
          let d = Racecheck.decide ~envs stripped ph in
          List.iter
            (fun (p : Racecheck.probe) ->
              if Racecheck.mismatch p then
                Alcotest.failf "%s: RACE-ORACLE-MISMATCH at loop %s" e.name
                  p.var)
            d.probes)
        stripped.phases)
    Codes.Registry.all

let test_decision_source_recorded () =
  (* a loop the certifier decides is marked as Certified, and the
     decision's probe trail records the static verdict *)
  let prog =
    one_phase
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" ] ] ])
  in
  let d =
    Racecheck.decide ~envs:(Core.Lint.default_envs prog) prog
      (List.hd prog.phases)
  in
  (match d.chosen with
  | Some ([], Racecheck.Certified) -> ()
  | Some (_, Racecheck.Sampled) -> Alcotest.fail "expected a certified decision"
  | _ -> Alcotest.fail "expected the root loop to be chosen");
  match d.probes with
  | [ ({ verdict = Proved_independent; sampled = Some true; _ } as p) ] ->
      (* agreement is no mismatch; a refuting sample would be one *)
      Alcotest.(check (list bool)) "mismatch" [ false; true; false ]
        (List.map Racecheck.mismatch
           [ p; { p with sampled = Some false }; { p with sampled = None } ])
  | _ -> Alcotest.fail "probe trail incomplete"

let () =
  Alcotest.run "racecheck"
    [
      ( "crafted",
        [
          Alcotest.test_case "tiled writes" `Quick test_stride_exceeds_span;
          Alcotest.test_case "recurrence" `Quick test_recurrence_dependent;
          Alcotest.test_case "accumulator" `Quick test_accumulator_dependent;
          Alcotest.test_case "overlapping spans" `Quick
            test_overlapping_spans_dependent;
          Alcotest.test_case "non-affine" `Quick test_nonaffine_unknown;
          Alcotest.test_case "read-only" `Quick test_read_only_independent;
        ] );
      ( "congruence",
        [
          Alcotest.test_case "rows of a matrix" `Quick
            test_congruence_rows_of_matrix;
          Alcotest.test_case "row-crossing not certified" `Quick
            test_congruence_row_crossing_not_certified;
          Alcotest.test_case "adi rowsweep certified" `Quick
            test_congruence_adi_rowsweep;
        ] );
      ( "differential",
        [
          Alcotest.test_case "registry vs oracle" `Quick
            test_differential_registry;
          Alcotest.test_case "marked loops never refuted" `Quick
            test_registry_marked_loops_certified;
        ] );
      ( "autopar",
        [
          Alcotest.test_case "certified mark recovers markings" `Quick
            test_certified_mark_recovers_markings;
          Alcotest.test_case "no oracle mismatches" `Quick
            test_no_mismatches_on_registry;
          Alcotest.test_case "decision source" `Quick
            test_decision_source_recorded;
        ] );
    ]
