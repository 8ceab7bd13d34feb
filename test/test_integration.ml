(* End-to-end integration tests: the full pipeline on random programs
   (robustness: no crashes, invariants hold), cross-validation of the
   analysis against simulation, and the degradation ladder (total
   analysis with recorded diagnostics instead of crashes). *)

open Symbolic
open Ir

let i = Expr.int
let v = Expr.var

(* Random multi-phase programs over two arrays with affine accesses. *)
let gen_program =
  let open QCheck.Gen in
  let* n_phases = int_range 2 4 in
  let* par_n = int_range 6 20 in
  let gen_phase idx =
    let* stride = int_range 1 3 in
    let* offset = int_range 0 4 in
    let* width = int_range 1 3 in
    let* writes_a = bool in
    let* repeats_read = bool in
    let refs =
      let base = Expr.add (Expr.mul (i stride) (v "i")) (i offset) in
      let extra = Expr.add base (i width) in
      if writes_a then
        [ Build.read "B" [ base ]; Build.write "A" [ base ] ]
        @ (if repeats_read then [ Build.read "B" [ extra ] ] else [])
      else
        [ Build.read "A" [ base ]; Build.write "B" [ base ] ]
        @ if repeats_read then [ Build.read "A" [ extra ] ] else []
    in
    return
      (Build.phase
         (Printf.sprintf "P%d" idx)
         (Build.doall "i" ~lo:(i 0) ~hi:(i (Stdlib.( - ) par_n 1))
            [ Build.assign refs ]))
  in
  let rec phases k acc =
    if k = n_phases then return (List.rev acc)
    else
      let* ph = gen_phase k in
      phases (Stdlib.( + ) k 1) (ph :: acc)
  in
  let* ps = phases 0 [] in
  let* repeats = bool in
  return
    (Build.program ~repeats ~name:"rand" ~params:Assume.empty
       ~arrays:[ Build.array "A" [ i 200 ]; Build.array "B" [ i 200 ] ]
       ps)

let arb_program =
  QCheck.make gen_program ~print:(Format.asprintf "%a" Types.pp_program)

let run_pipeline prog h =
  Core.Pipeline.run prog ~env:Env.empty ~h

(* The pipeline never crashes and the simulated run conserves accesses. *)
let prop_pipeline_total =
  QCheck.Test.make ~name:"pipeline total on random programs" ~count:60
    (QCheck.pair arb_program (QCheck.int_range 1 8))
    (fun (prog, h) ->
      let t = run_pipeline prog h in
      let r = Core.Pipeline.simulate t in
      let total = ref 0 in
      List.iter
        (fun ph ->
          Enumerate.iter prog Env.empty ph
            ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work:_ -> incr total))
        prog.phases;
      r.total_local + r.total_remote = !total
      && r.par_time > 0.0
      && r.efficiency > 0.0 && r.efficiency <= 1.0 +. 1e-9)

(* At H=1 every plan is communication-free and efficiency is 1. *)
let prop_h1_perfect =
  QCheck.Test.make ~name:"H=1 efficiency is 1" ~count:40 arb_program
    (fun prog ->
      let t = run_pipeline prog 1 in
      let r = Core.Pipeline.simulate t in
      r.total_remote = 0 && abs_float (r.efficiency -. 1.0) < 1e-9)

(* Edge labels are stable under parameter sampling: D edges come only
   from privatizable endpoints. *)
let prop_d_edges_from_p =
  QCheck.Test.make ~name:"D edges only at privatizable nodes" ~count:40
    arb_program (fun prog ->
      let t = run_pipeline prog 4 in
      List.for_all
        (fun (g : Locality.Lcg.graph) ->
          List.for_all
            (fun (e : Locality.Lcg.edge) ->
              (not (Locality.Table1.equal_label e.label Locality.Table1.D))
              ||
              let src = List.nth g.nodes e.src and dst = List.nth g.nodes e.dst in
              Ir.Liveness.equal_attr src.attr Ir.Liveness.P
              || Ir.Liveness.equal_attr dst.attr Ir.Liveness.P)
            g.edges)
        t.lcg.graphs)

(* The six registry codes drive the solver to a feasible, unbroken
   model at several machine sizes. *)
let test_registry_solvable () =
  Probe.with_seed 70 (fun () ->
      List.iter
        (fun (e : Codes.Registry.entry) ->
          List.iter
            (fun h ->
              let t =
                Core.Pipeline.run e.program ~env:(e.env_of_size 3) ~h
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s H=%d objective finite" e.name h)
                true
                (Float.is_finite t.solution.objective))
            [ 2; 4 ])
        Codes.Registry.all)

(* Analysis-simulation cross-check: a phase whose intra-phase condition
   holds and whose incoming edge is L generates no remote access to
   that array (modulo frontier reads served by the halo). *)
let test_l_chain_no_redistribution () =
  Probe.with_seed 71 (fun () ->
      let e = Codes.Registry.find "swim" in
      let t = Core.Pipeline.run e.program ~env:(e.env_of_size 4) ~h:4 in
      (* swim is a single chain per array: exactly one layout epoch,
         hence no redistribution (frontier updates are allowed). *)
      let epochs array =
        List.length
          (List.filter
             (fun (l : Ilp.Distribution.layout) -> String.equal l.array array)
             t.plan.layouts)
      in
      List.iter
        (fun (decl : Types.array_decl) ->
          Alcotest.(check int)
            (Printf.sprintf "swim %s single epoch" decl.name)
            1 (epochs decl.name))
        e.program.arrays)

(* The tentpole guarantee: the closed-form symbolic accounting and the
   historical enumerated accounting render byte-identical analysis
   reports on every registry kernel.  [report_core] excludes the
   diagnostics table, whose fallback-visibility line is mode-dependent
   by design.  The simulator's runs of the LCG plan and of the BLOCK
   baseline must agree too, to the last bit of their times. *)
let test_symbolic_enum_parity () =
  Probe.with_seed 73 (fun () ->
      let saved = !Lattice.mode in
      Fun.protect
        ~finally:(fun () -> Lattice.mode := saved)
        (fun () ->
          List.iter
            (fun (e : Codes.Registry.entry) ->
              let env = e.env_of_size e.default_size in
              let rounds = if e.program.repeats then 2 else 1 in
              let render mode =
                Lattice.mode := mode;
                let t = Core.Pipeline.run e.program ~env ~h:4 in
                let sim (r : Dsmsim.Exec.run) =
                  Format.asprintf "%a@.par %h seq %h@." Dsmsim.Exec.pp r
                    r.par_time r.seq_time
                in
                Format.asprintf "%a" Core.Pipeline.report_core t
                ^ sim (Core.Pipeline.simulate ~rounds t)
                ^ sim (Core.Pipeline.simulate_baseline ~rounds t)
              in
              let sym = render Lattice.Auto in
              let enum = render Lattice.Enumerated_only in
              Alcotest.(check string)
                (e.name ^ " symbolic = enumerated report")
                enum sym)
            Codes.Registry.all))

let test_report_markdown () =
  Probe.with_seed 72 (fun () ->
      let e = Codes.Registry.find "adi" in
      let t = Core.Pipeline.run e.program ~env:(e.env_of_size 4) ~h:4 in
      let md = Core.Report.markdown t in
      let contains needle =
        let nh = String.length md and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub md i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun section ->
          Alcotest.(check bool) ("report has " ^ section) true (contains section))
        [
          "# Locality analysis report: adi";
          "## Locality-Communication Graph";
          "## Constraint model";
          "## Chains";
          "## Communication schedule";
          "## Simulation";
          "## Dataflow validation";
          "**PASS**";
          "digraph lcg";
        ])

(* ------------------------------------------------------------------ *)
(* Degradation ladder *)

let test_registry_codes_clean () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let env = e.env_of_size e.default_size in
      let t = Core.Pipeline.run e.program ~env ~h:4 in
      Alcotest.(check bool)
        (e.name ^ " no error diagnostics")
        false
        (Core.Pipeline.degraded t))
    Codes.Registry.all

(* A quadratic subscript on the parallel loop is outside the ARD
   grammar: descriptor construction degrades the reference to the
   whole-array descriptor and the pipeline must still produce a plan. *)
let quad_program =
  Ir.Build.(
    program ~name:"quad"
      ~params:(Assume.of_list [ ("N", Assume.Int_range (8, 64)) ])
      ~arrays:[ array "A" [ var "N" * var "N" ]; array "B" [ var "N" ] ]
      [
        phase "QUAD"
          (doall "i" ~lo:(int 0)
             ~hi:(var "N" - int 1)
             [ assign [ read "A" [ var "i" * var "i" ]; write "B" [ var "i" ] ] ]);
        phase "SUM"
          (doall "i" ~lo:(int 0)
             ~hi:(var "N" - int 1)
             [ assign [ read "B" [ var "i" ]; write "B" [ var "i" ] ] ]);
      ])

let test_unsupported_subscript_degrades () =
  let env = Env.add "N" 16 Env.empty in
  let t = Core.Pipeline.run quad_program ~env ~h:4 in
  (* a full plan exists... *)
  Alcotest.(check int) "chunk per phase" 2 (Array.length t.plan.chunk);
  (* ...the degraded reference was diagnosed... *)
  Alcotest.(check bool) "DESC-WHOLE-ARRAY recorded" true
    (List.exists
       (fun (d : Core.Diag.t) -> d.code = "DESC-WHOLE-ARRAY")
       (Core.Pipeline.diagnostics t));
  (* ...the degraded node's pd is marked inexact... *)
  let inexact =
    List.exists
      (fun (g : Locality.Lcg.graph) ->
        List.exists
          (fun (n : Locality.Lcg.node) -> not n.pd.Descriptor.Pd.exact)
          g.nodes)
      t.lcg.graphs
  in
  Alcotest.(check bool) "inexact node present" true inexact;
  (* ...no edge incident to an inexact node claims locality... *)
  List.iter
    (fun (g : Locality.Lcg.graph) ->
      let nodes = Array.of_list g.nodes in
      List.iter
        (fun (e : Locality.Lcg.edge) ->
          let exact n = nodes.(n).Locality.Lcg.pd.Descriptor.Pd.exact in
          if not (exact e.src && exact e.dst) then
            Alcotest.(check bool)
              "degraded endpoints never L" true
              (e.label <> Locality.Table1.L))
        g.edges)
    t.lcg.graphs;
  (* ...and the program still simulates and validates end to end *)
  let r = Core.Pipeline.simulate t in
  Alcotest.(check bool) "simulates" true (r.par_time > 0.0);
  let v = Exec.Validate.run t.lcg t.plan in
  Alcotest.(check int) "dataflow still sound" 0 v.stale

let test_max_errors_cap () =
  let d = Core.Diag.collector ~max_errors:2 () in
  let add () =
    Core.Diag.add d ~severity:Core.Diag.Error ~stage:Core.Diag.Solve ~code:"X"
      "boom"
  in
  add ();
  add ();
  Alcotest.check_raises "cap enforced" (Core.Diag.Too_many_errors 2) add;
  (* warnings never count against the cap *)
  Core.Diag.add d ~severity:Core.Diag.Warning ~stage:Core.Diag.Solve ~code:"Y"
    "fine";
  Alcotest.(check int) "errors counted" 2 (Core.Diag.errors d)

let () =
  Alcotest.run "integration"
    [
      ( "random-programs",
        [
          QCheck_alcotest.to_alcotest prop_pipeline_total;
          QCheck_alcotest.to_alcotest prop_h1_perfect;
          QCheck_alcotest.to_alcotest prop_d_edges_from_p;
        ] );
      ( "registry",
        [
          Alcotest.test_case "solvable everywhere" `Quick test_registry_solvable;
          Alcotest.test_case "L chains keep one epoch" `Quick
            test_l_chain_no_redistribution;
          Alcotest.test_case "markdown report" `Quick test_report_markdown;
          Alcotest.test_case "symbolic/enumerated parity" `Quick
            test_symbolic_enum_parity;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "registry codes clean" `Quick
            test_registry_codes_clean;
          Alcotest.test_case "unsupported subscript" `Quick
            test_unsupported_subscript_degrades;
          Alcotest.test_case "max-errors cap" `Quick test_max_errors_cap;
        ] );
    ]
