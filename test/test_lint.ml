(* The lint catalog: a targeted negative test per LINT-* code (each
   code must fire on a minimal crafted program), golden expected-code
   sets for every registry benchmark, and the no-error guarantee the CI
   lint job enforces over the shipped samples. *)

open Symbolic
open Ir
module Diag = Core.Diag
module Lint = Core.Lint
module Racecheck = Descriptor.Racecheck

let v = Expr.var

let prog ?(params = Assume.of_list [ ("N", Assume.Int_range (8, 24)) ])
    ?(arrays = []) nest =
  Build.program ~name:"t" ~params ~arrays [ Build.phase "P" nest ]

let codes findings =
  List.sort_uniq String.compare (List.map (fun (d : Diag.t) -> d.Diag.code) findings)

let has code findings = List.mem code (codes findings)

let check_has code p =
  let findings = Lint.check p in
  Alcotest.(check bool)
    (code ^ " fires")
    true (has code findings);
  findings

let severity_of code findings =
  (List.find (fun (d : Diag.t) -> d.Diag.code = code) findings).Diag.severity

(* ------------------------------------------------------------------ *)
(* One crafted program per code *)

let test_multi_parallel () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N"; v "N" ] ]
      Build.(
        doall "r" ~lo:(int 0) ~hi:(v "N" - int 1)
          [
            doall "c" ~lo:(int 0) ~hi:(v "N" - int 1)
              [ assign [ write "A" [ var "r"; var "c" ] ] ];
          ])
  in
  let p =
    (* the builder cannot produce this shape; force both loops parallel *)
    match p.Types.phases with
    | [ ph ] ->
        let rec force (l : Types.loop) =
          {
            l with
            Types.parallel = true;
            body =
              List.map
                (function
                  | Types.Loop l -> Types.Loop (force l) | s -> s)
                l.Types.body;
          }
        in
        { p with Types.phases = [ { ph with Types.nest = force ph.Types.nest } ] }
    | _ -> assert false
  in
  let f = check_has "LINT-MULTI-PARALLEL" p in
  Alcotest.(check bool)
    "error severity" true
    (severity_of "LINT-MULTI-PARALLEL" f = Diag.Error)

let test_undeclared_array () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        doall "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ read "A" [ var "k" ]; write "B" [ var "k" ] ] ])
  in
  ignore (check_has "LINT-UNDECLARED-ARRAY" p)

let test_rank_mismatch () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N"; v "N" ] ]
      Build.(
        doall "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" ] ] ])
  in
  let f = check_has "LINT-SUBSCRIPT" p in
  Alcotest.(check bool)
    "rank mismatch is an error" true
    (severity_of "LINT-SUBSCRIPT" f = Diag.Error)

let test_nonaffine_subscript () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ Expr.mul (v "N") (v "N") ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" * var "k" ] ] ])
  in
  let f = check_has "LINT-SUBSCRIPT" p in
  Alcotest.(check bool)
    "non-affine is a warning" true
    (severity_of "LINT-SUBSCRIPT" f = Diag.Warning)

let test_unbound_param () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "M" - int 1)
          [ assign [ write "A" [ var "k" ] ] ])
  in
  ignore (check_has "LINT-UNBOUND-PARAM" p)

let test_nonnormal () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 1) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" ] ] ])
  in
  let f = check_has "LINT-NONNORMAL" p in
  Alcotest.(check bool)
    "info severity" true
    (severity_of "LINT-NONNORMAL" f = Diag.Info)

let test_bounds () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" + var "N" ] ] ])
  in
  ignore (check_has "LINT-BOUNDS" p)

(* In bounds on every default sample, out of bounds at the analyzed
   extent: only the closed-form check at [at] sees it. *)
let test_bounds_at_analyzed_env () =
  let params = Assume.of_list [ ("N", Assume.Int_range (8, 4096)) ] in
  let with_extent e =
    prog ~params
      ~arrays:[ Build.array "A" [ Expr.int e ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" ] ] ])
  in
  let nmax =
    List.fold_left
      (fun m env -> max m (Env.find env "N"))
      0
      (Lint.default_envs (with_extent 1))
  in
  Alcotest.(check bool) "room above the samples" true (nmax < 4096);
  let p = with_extent nmax in
  Alcotest.(check bool) "samples in bounds" false (has "LINT-BOUNDS" (Lint.check p));
  let env = Env.of_list [ ("N", nmax + 1) ] in
  let bounds findings =
    List.filter_map
      (fun (d : Diag.t) -> if d.Diag.code = "LINT-BOUNDS" then Some d.Diag.message else None)
      findings
  in
  let want =
    [ Printf.sprintf "access to A at flat address %d, outside its declared extent" nmax ]
  in
  Alcotest.(check (list string)) "reported at the analyzed env" want
    (bounds (Lint.check ~at:(Locality.Lcg.facts (Descriptor.Ard.of_program p) env) p));
  Alcotest.(check (list string)) "reported by the pipeline" want
    (bounds (Core.Pipeline.diagnostics (Core.Pipeline.run p ~env ~h:4)))

let test_dead_write () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ]; Build.array "B" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ read "A" [ var "k" ]; write "B" [ var "k" ] ] ])
  in
  let f = check_has "LINT-DEAD-WRITE" p in
  Alcotest.(check bool)
    "names the array" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.code = "LINT-DEAD-WRITE" && d.Diag.where = Some "B")
       f)

let test_race () =
  (* declared parallel, but every iteration writes A(0) *)
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        doall "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ int 0 ] ] ])
  in
  let f = check_has "LINT-RACE" p in
  Alcotest.(check bool)
    "error severity" true
    (severity_of "LINT-RACE" f = Diag.Error)

let test_uncertified () =
  (* k*k is injective on 0..N-1, so sampling finds no conflict, but the
     descriptor degrades to the whole array: statically undecidable *)
  let p =
    prog
      ~arrays:[ Build.array "A" [ Expr.mul (v "N") (v "N") ] ]
      Build.(
        doall "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" * var "k" ] ] ])
  in
  let f = check_has "LINT-UNCERTIFIED" p in
  Alcotest.(check bool)
    "info severity" true
    (severity_of "LINT-UNCERTIFIED" f = Diag.Info)

let test_symbolic_fallback () =
  (* emitted by the pipeline rather than a lint rule: an analysis step
     that leaves the closed-form symbolic fragment falls back to
     address enumeration and the run records the count.  Here the
     def-before-use of A: at k = 0 the read of A(4i+3) precedes its
     write, under the loop the two share *)
  let p =
    prog
      ~arrays:[ Build.array "A" [ Expr.mul (Expr.int 4) (v "N") ] ]
      Build.(
        doall "i" ~lo:(int 0) ~hi:(v "N" - int 1)
          [
            do_ "k" ~lo:(int 0) ~hi:(int 3)
              [
                assign [ write "A" [ (int 4 * var "i") + var "k" ] ];
                assign [ read "A" [ (int 4 * var "i") + int 3 - var "k" ] ];
              ];
          ])
  in
  let t = Core.Pipeline.run p ~env:(Env.of_list [ ("N", 8) ]) ~h:4 in
  let f = Core.Pipeline.diagnostics t in
  Alcotest.(check bool)
    "LINT-SYMBOLIC-FALLBACK fires" true
    (has "LINT-SYMBOLIC-FALLBACK" f);
  Alcotest.(check bool)
    "info severity" true
    (severity_of "LINT-SYMBOLIC-FALLBACK" f = Diag.Info)

(* Past Shape's partial-evaluation budget (10^4 values of a non-affine
   subscript) the bounds walk is a counted lint-bounds fallback; under
   --symbolic-only it is a positioned diagnostic instead. *)
let test_bounds_fallback () =
  let p =
    prog
      ~params:(Assume.of_list [ ("N", Assume.Int_range (10000, 10000)) ])
      ~arrays:[ Build.array "A" [ Expr.mul (v "N") (v "N") ] ]
      Build.(
        do_ "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ (var "k" * var "k") + (int 2 * v "N") ] ] ])
  in
  Metrics.reset ();
  let findings = Lint.check p in
  Alcotest.(check bool) "LINT-BOUNDS fires" true (has "LINT-BOUNDS" findings);
  Alcotest.(check (option int)) "one fallback per sample" (Some 3)
    (List.assoc_opt "symbolic.fallback.lint-bounds" (Metrics.snapshot ()).Metrics.counters);
  let mode = Lattice.mode_cell () in
  let findings =
    Fun.protect
      ~finally:(fun () -> mode := Lattice.Auto)
      (fun () ->
        mode := Lattice.Symbolic_only;
        Lint.check p)
  in
  Alcotest.(check bool) "no walk" false (has "LINT-BOUNDS" findings);
  let d = List.find (fun (d : Diag.t) -> d.Diag.code = "LINT-SYMBOLIC-FALLBACK") findings in
  Alcotest.(check (option string)) "positioned" (Some "P") d.Diag.where;
  Alcotest.(check bool) "error" true (d.Diag.severity = Diag.Error)

let test_catalog_covered () =
  (* every cataloged code has a negative test in this file *)
  let tested =
    [
      "LINT-MULTI-PARALLEL";
      "LINT-UNDECLARED-ARRAY";
      "LINT-SUBSCRIPT";
      "LINT-UNBOUND-PARAM";
      "LINT-NONNORMAL";
      "LINT-BOUNDS";
      "LINT-DEAD-WRITE";
      "LINT-RACE";
      "LINT-UNCERTIFIED";
      "LINT-SYMBOLIC-FALLBACK";
    ]
  in
  List.iter
    (fun (code, _, _) ->
      Alcotest.(check bool) (code ^ " has a test") true (List.mem code tested))
    Lint.catalog

(* ------------------------------------------------------------------ *)
(* Golden expected-code sets over the registry *)

let golden =
  [
    ("tfft2", [ "LINT-NONNORMAL"; "LINT-SUBSCRIPT"; "LINT-UNCERTIFIED" ]);
    ("jacobi2d", [ "LINT-NONNORMAL" ]);
    ("swim", [ "LINT-NONNORMAL" ]);
    ("tomcatv", [ "LINT-NONNORMAL" ]);
    ("matmul", []);
    (* congruence separation in Racecheck certifies ADI's row sweep,
       so it no longer carries LINT-UNCERTIFIED *)
    ("adi", [ "LINT-NONNORMAL" ]);
    ("redblack", [ "LINT-NONNORMAL" ]);
    ("trisolve", []);
    ("mgrid", [ "LINT-NONNORMAL" ]);
  ]

let test_registry_golden () =
  Alcotest.(check (list string))
    "golden covers the whole registry" Codes.Registry.names
    (List.map fst golden);
  List.iter
    (fun (name, expected) ->
      let e = Codes.Registry.find name in
      Alcotest.(check (list string))
        (name ^ " lint codes")
        expected
        (codes (Lint.check e.program)))
    golden

let test_registry_no_errors () =
  (* the property the CI lint job enforces: benchmarks never produce
     error-severity findings *)
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.severity = Diag.Error then
            Alcotest.failf "%s: unexpected lint error %s (%s)" e.name
              d.Diag.code d.Diag.message)
        (Lint.check e.program))
    Codes.Registry.all

(* Every shipped surface-language sample lints without errors. *)
let sample_dir () =
  let rec up dir =
    let candidate = Filename.concat dir "examples/programs" in
    if Sys.file_exists candidate then candidate
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then failwith "examples/programs not found"
      else up parent
  in
  up (Sys.getcwd ())

let sample_programs () =
  let dir = sample_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dsm")
  |> List.sort String.compare
  |> List.map (fun f -> (f, Frontend.Parse.program_file (Filename.concat dir f)))

let test_samples_no_errors () =
  let samples = sample_programs () in
  Alcotest.(check bool) "found samples" true (samples <> []);
  List.iter
    (fun (f, p) ->
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.severity = Diag.Error then
            Alcotest.failf "%s: unexpected lint error %s (%s)" f d.Diag.code
              d.Diag.message)
        (Lint.check p))
    samples

(* ------------------------------------------------------------------ *)
(* Pipeline and autopar wiring *)

let test_pipeline_records_lint () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        do_ "k" ~lo:(int 1) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ var "k" ] ] ])
  in
  let t = Core.Pipeline.run p ~env:(Env.of_list [ ("N", 16) ]) ~h:4 in
  Alcotest.(check bool)
    "LINT-NONNORMAL in pipeline diagnostics" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "LINT-NONNORMAL")
       (Core.Pipeline.diagnostics t))

let test_pipeline_strict_refuses () =
  let p =
    prog
      ~arrays:[ Build.array "A" [ v "N" ] ]
      Build.(
        doall "k" ~lo:(int 0) ~hi:(v "N" - int 1)
          [ assign [ write "A" [ int 0 ] ] ])
  in
  let env = Env.of_list [ ("N", 16) ] in
  (match Core.Pipeline.run ~strict:true p ~env ~h:4 with
  | _ -> Alcotest.fail "strict run accepted a racy program"
  | exception Lint.Failed findings ->
      Alcotest.(check bool) "carries LINT-RACE" true (has "LINT-RACE" findings));
  (* non-strict: the same program still analyzes (degraded) *)
  let t = Core.Pipeline.run p ~env ~h:4 in
  Alcotest.(check bool) "degraded, not crashed" true (Core.Pipeline.degraded t)

let test_autopar_no_mismatch_diags () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let c = Diag.collector () in
      let marked = Lint.autopar ~diags:c e.program in
      Alcotest.(check int)
        (e.name ^ ": no RACE-ORACLE-MISMATCH")
        0 (Diag.count c);
      Alcotest.(check int)
        (e.name ^ ": phase count preserved (modulo reduction splits)")
        (List.length
           (Autopar.recognize_reductions ~envs:(Lint.default_envs e.program)
              e.program)
             .Types.phases)
        (List.length marked.Types.phases))
    Codes.Registry.all

(* ------------------------------------------------------------------ *)
(* Pins: the loop autopar marks in each phase, and the enumeration lint
   pays for its sampling *)

let strip (p : Types.program) =
  {
    p with
    Types.phases =
      List.map
        (fun (ph : Types.phase) ->
          { ph with Types.nest = Autopar.clear_markings ph.Types.nest })
        p.Types.phases;
  }

(* "PHASE=var/source" per phase ("PHASE=-" when none is marked), as
   Lint.autopar decides; the phases it returns must carry exactly the
   chosen marking. *)
let marking p =
  Symbolic.Probe.with_seed 2026 @@ fun () ->
  let envs = Lint.default_envs p in
  let reduced = Autopar.recognize_reductions ~envs p in
  let marked = Lint.autopar p in
  List.map2
    (fun (ph : Types.phase) (out : Types.phase) ->
      let d = Racecheck.decide ~envs reduced ph in
      let chosen = Option.map fst d.Racecheck.chosen in
      let out_paths =
        List.filter
          (fun path -> (Autopar.loop_at out.Types.nest path).Types.parallel)
          (Autopar.loop_paths out.Types.nest)
      in
      if out_paths <> Option.to_list chosen then
        Alcotest.failf "%s: Lint.autopar marks another loop" ph.Types.phase_name;
      ph.Types.phase_name ^ "="
      ^
      match d.Racecheck.chosen with
      | None -> "-"
      | Some (path, source) ->
          Autopar.loop_var_at ph.Types.nest path
          ^ if source = Racecheck.Certified then "/certified" else "/sampled")
    reduced.Types.phases marked.Types.phases
  |> String.concat " "

let marking_golden =
  [
    ("tfft2", "F1=M/certified F2=J/sampled F3=I/sampled F4=I/certified F5=J/certified F6=J/certified F7=J/certified F8=M/certified");
    ("jacobi2d", "SWEEP=c/certified COPY=c/certified");
    ("swim", "CALC1=c/certified CALC2=c/certified CALC3=c/certified");
    ("tomcatv", "RESID=c/certified NORM=c/certified COMBINE=c/certified UPDATE=c/certified");
    ("matmul", "INIT=j/certified MULT=j/certified SCALE=j/certified");
    ("adi", "COLSWEEP=c/certified ROWSWEEP=r/certified");
    ("redblack", "RED=i/certified BLACK=i/certified");
    ("trisolve", "SOLVE=j/certified REDUCE=j/certified");
    ("mgrid", "SMOOTHF=i/certified RESTRICT=i/certified SMOOTHC=i/certified PROLONG=i/certified");
    ("adi.dsm", "COLSWEEP=c/certified ROWSWEEP=r/certified");
    ("jacobi2d.dsm", "SWEEP=c/certified COPY=c/certified");
    ("matmul.dsm", "INIT=j/certified MULT=j/certified SCALE=j/certified");
    ("mgrid.dsm", "SMOOTHF=i/certified RESTRICT=i/certified SMOOTHC=i/certified PROLONG=i/certified");
    ("producer_consumer.dsm", "PRODUCE=i/certified CONSUME=k/certified");
    ("redblack.dsm", "RED=i/certified BLACK=i/certified");
    ("reshape_calls.dsm", "INIT=j/certified C1_SMOOTH=j/certified C2_SMOOTH=j/certified USE=k/certified");
    ("swim.dsm", "CALC1=c/certified CALC2=c/certified CALC3=c/certified");
    ("tfft2.dsm", "F1=M/certified F2=J/sampled F3=I/sampled F4=I/certified F5=J/certified F6=J/certified F7=J/certified F8=M/certified");
    ("tfft2_f3.dsm", "F3=I/sampled");
    ("tomcatv.dsm", "RESID=c/certified NORM=c/certified COMBINE=c/certified UPDATE=c/certified");
    ("trisolve.dsm", "SOLVE=j/certified REDUCE=j/certified");
  ]

let test_marking_golden () =
  let programs =
    List.map (fun (e : Codes.Registry.entry) -> (e.name, strip e.program)) Codes.Registry.all
    @ sample_programs ()
  in
  Alcotest.(check (list string)) "programs" (List.map fst marking_golden) (List.map fst programs);
  List.iter2
    (fun (name, expected) (_, p) -> Alcotest.(check string) name expected (marking p))
    marking_golden programs

(* enum.iter and enum.addresses after Lint.check at each kernel's
   default size: a rule that starts sampling loops the certifier
   already decided shows up here. *)
let sampling_golden =
  [
    ("tfft2", (6, 11392));
    ("jacobi2d", (0, 0));
    ("swim", (0, 0));
    ("tomcatv", (0, 0));
    ("matmul", (0, 0));
    ("adi", (0, 0));
    ("redblack", (0, 0));
    ("trisolve", (0, 0));
    ("mgrid", (0, 0));
  ]

let enum_counts run =
  Symbolic.Probe.with_seed 2026 @@ fun () ->
  Metrics.reset ();
  run ();
  let c = (Metrics.snapshot ()).Metrics.counters in
  (List.assoc "enum.iter" c, List.assoc "enum.addresses" c)

let test_sampling_pin () =
  Alcotest.(check (list string)) "kernels" (List.map fst sampling_golden)
    (List.map (fun (e : Codes.Registry.entry) -> e.name) Codes.Registry.all);
  List.iter
    (fun (name, expected) ->
      let e = Codes.Registry.find name in
      Alcotest.(check (pair int int)) (name ^ " enum.iter, enum.addresses") expected
        (enum_counts (fun () ->
             ignore
               (Lint.check
                  ~at:
                    (Locality.Lcg.facts
                       (Descriptor.Ard.of_program e.program)
                       (e.env_of_size e.default_size))
                  e.program))))
    sampling_golden

(* enum.iter after Lint.autopar on tomcatv, whose phases the certifier
   decides: reduction recognition samples a root loop only in a phase
   with an accumulator candidate (NORM's PARTIAL), so the walks left
   are that one and the mismatch checks of Racecheck.decide. *)
let test_autopar_sampling_pin () =
  let tomcatv = (Codes.Registry.find "tomcatv").program in
  Alcotest.(check int) "tomcatv enum.iter" 12
    (fst (enum_counts (fun () -> ignore (Lint.autopar tomcatv))))

let () =
  Alcotest.run "lint"
    [
      ( "catalog",
        [
          Alcotest.test_case "multi-parallel" `Quick test_multi_parallel;
          Alcotest.test_case "undeclared array" `Quick test_undeclared_array;
          Alcotest.test_case "rank mismatch" `Quick test_rank_mismatch;
          Alcotest.test_case "non-affine subscript" `Quick
            test_nonaffine_subscript;
          Alcotest.test_case "unbound param" `Quick test_unbound_param;
          Alcotest.test_case "non-normalized loop" `Quick test_nonnormal;
          Alcotest.test_case "out of bounds" `Quick test_bounds;
          Alcotest.test_case "out of bounds at the analyzed env" `Quick
            test_bounds_at_analyzed_env;
          Alcotest.test_case "dead write" `Quick test_dead_write;
          Alcotest.test_case "race" `Quick test_race;
          Alcotest.test_case "uncertified" `Quick test_uncertified;
          Alcotest.test_case "symbolic fallback" `Quick test_symbolic_fallback;
          Alcotest.test_case "bounds fallback" `Quick test_bounds_fallback;
          Alcotest.test_case "catalog covered" `Quick test_catalog_covered;
        ] );
      ( "golden",
        [
          Alcotest.test_case "registry code sets" `Quick test_registry_golden;
          Alcotest.test_case "registry has no errors" `Quick
            test_registry_no_errors;
          Alcotest.test_case "samples have no errors" `Quick
            test_samples_no_errors;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "pipeline records lint" `Quick
            test_pipeline_records_lint;
          Alcotest.test_case "strict pipeline refuses" `Quick
            test_pipeline_strict_refuses;
          Alcotest.test_case "autopar mismatch-free" `Quick
            test_autopar_no_mismatch_diags;
        ] );
      ( "pins",
        [
          Alcotest.test_case "autopar marking" `Quick test_marking_golden;
          Alcotest.test_case "lint sampling cost" `Quick test_sampling_pin;
          Alcotest.test_case "autopar sampling cost" `Quick test_autopar_sampling_pin;
        ] );
    ]
