open Symbolic

type t = {
  prog : Ir.Types.program;
  env : Env.t;
  machine : Ilp.Cost.machine;
  lcg : Locality.Lcg.t;
  model : Ilp.Model.t;
  solution : Ilp.Solve.result;
  plan : Ilp.Distribution.plan;
  diags : Diag.collector;
}

(* The degradation ladder only catches failures with a documented
   conservative fallback; anything else (bugs, Stack_overflow, ...)
   still propagates. *)
let recoverable = function
  | Descriptor.Ard.Unsupported | Qnum.Overflow | Qnum.Division_by_zero
  | Division_by_zero | Env.Unbound _ | Expr.Non_integral _
  | Lattice.Outside_fragment _ ->
      true
  | _ -> false

let describe = function
  | Descriptor.Ard.Unsupported -> "unsupported (non-affine) subscript"
  | Qnum.Overflow -> "symbolic arithmetic overflow"
  | Qnum.Division_by_zero | Division_by_zero -> "division by zero"
  | Env.Unbound v -> "unbound parameter " ^ v
  | Expr.Non_integral s -> "non-integral expression: " ^ s
  | Lattice.Outside_fragment s ->
      "outside the closed-form fragment under --symbolic-only: " ^ s
  | e -> Printexc.to_string e

(* Total front door for surface text: any parse failure lands in the
   collector as a positioned Frontend-stage diagnostic instead of an
   exception.  [where] is the source's display name (a path, "<stdin>",
   "fuzz[17]", ...); the diagnostic position is "<where>:<line>". *)
let parse_program ?diags ~where source =
  let diags = match diags with Some d -> d | None -> Diag.collector () in
  match Frontend.Parse.program source with
  | prog -> Some prog
  | exception Frontend.Parse.Error { line; message } ->
      Diag.addf diags ~severity:Diag.Error ~stage:Diag.Frontend
        ~where:(Printf.sprintf "%s:%d" where line)
        ~code:"FRONTEND-PARSE" "%s" message;
      None

let guard ~strict ~diags ~stage ~code ~fallback f =
  try f ()
  with e when (not strict) && recoverable e ->
    Diag.addf diags ~severity:Diag.Error ~stage ~code
      "stage failed (%s); using conservative fallback" (describe e);
    fallback ()

let run_timer = Metrics.timer "pipeline.run"
let lint_timer = Metrics.timer "pipeline.lint"
let lcg_timer = Metrics.timer "pipeline.lcg"
let model_timer = Metrics.timer "pipeline.model"
let solve_timer = Metrics.timer "pipeline.solve"
let plan_timer = Metrics.timer "pipeline.plan"

let run ?machine ?(strict = false) ?diags prog ~env ~h =
  Metrics.with_timer run_timer @@ fun () ->
  let diags = match diags with Some d -> d | None -> Diag.collector () in
  let fallbacks_before = Lattice.fallback_count () in
  let machine =
    match machine with Some m -> m | None -> Ilp.Cost.default_machine ~h
  in
  (* Lint first: malformed input is reported with positions before any
     descriptor machinery can trip over it.  Under [strict] a program
     with Error-severity findings is refused outright.  Lint's race
     rule and the LCG read one set of descriptors: each reference site
     is described once per run. *)
  let ards = Descriptor.Ard.of_program prog in
  let findings =
    Metrics.with_timer lint_timer (fun () -> Lint.check ~at:env ~ards ~diags prog)
  in
  if
    strict
    && List.exists (fun (f : Diag.t) -> f.Diag.severity = Diag.Error) findings
  then raise (Lint.Failed findings);
  let lcg =
    Metrics.with_timer lcg_timer @@ fun () ->
    guard ~strict ~diags ~stage:Diag.Lcg ~code:"LCG-FAIL"
      ~fallback:(fun () -> Locality.Lcg.empty prog ~env ~h)
      (fun () -> Locality.Lcg.build ~ards prog ~env ~h)
  in
  (* Whole-array degradation happens inside descriptor construction
     (Ard.of_site catches Unsupported); surface it as a warning per
     degraded node so callers can see which phases lost precision. *)
  List.iter
    (fun (g : Locality.Lcg.graph) ->
      List.iter
        (fun (n : Locality.Lcg.node) ->
          if not n.pd.Descriptor.Pd.exact then
            let where =
              match List.nth_opt prog.Ir.Types.phases n.phase_idx with
              | Some ph -> ph.Ir.Types.phase_name
              | None -> Printf.sprintf "phase %d" n.phase_idx
            in
            Diag.addf diags ~severity:Diag.Warning ~stage:Diag.Descriptors
              ~where ~code:"DESC-WHOLE-ARRAY"
              "%s: conservative whole-array descriptor (edges forced to C)"
              g.Locality.Lcg.array)
        g.Locality.Lcg.nodes)
    lcg.graphs;
  let model =
    Metrics.with_timer model_timer @@ fun () ->
    guard ~strict ~diags ~stage:Diag.Model ~code:"MODEL-FAIL"
      ~fallback:(fun () ->
        { Ilp.Model.lcg;
          n_phases = List.length prog.Ir.Types.phases;
          locality = [];
          bounds = [];
          storage = [];
        })
      (fun () -> Ilp.Model.of_lcg lcg)
  in
  let solve_failed = ref false in
  let solution =
    Metrics.with_timer solve_timer @@ fun () ->
    guard ~strict ~diags ~stage:Diag.Solve ~code:"SOLVE-FAIL"
      ~fallback:(fun () ->
        solve_failed := true;
        let block = Ilp.Distribution.block_plan lcg in
        { Ilp.Solve.p = block.chunk;
          d_cost = 0.0;
          c_cost = 0.0;
          objective = 0.0;
          broken = [];
          budget_exhausted = false;
        })
      (fun () -> Ilp.Solve.solve model machine)
  in
  List.iter
    (fun b ->
      Diag.add diags ~severity:Diag.Warning ~stage:Diag.Solve
        ~code:"SOLVE-BROKEN"
        (Format.asprintf "%a" (Ilp.Solve.pp_broken model) b))
    solution.broken;
  if solution.budget_exhausted then begin
    Diag.addf diags ~severity:Diag.Warning ~stage:Diag.Solve
      ~code:"SOLVE-BUDGET"
      "the Eq. 7 solution is exact, but a representative window is wider \
       than the plan stage can tally; falling back to the BLOCK baseline \
       plan";
    solve_failed := true
  end;
  let plan =
    Metrics.with_timer plan_timer @@ fun () ->
    if !solve_failed then Ilp.Distribution.block_plan lcg
    else
      guard ~strict ~diags ~stage:Diag.Plan ~code:"PLAN-FAIL"
        ~fallback:(fun () -> Ilp.Distribution.block_plan lcg)
        (fun () -> Ilp.Distribution.of_solution lcg ~p:solution.p)
  in
  (* Fallbacks are correctness-neutral (the enumerated path computes
     the same answers) but mark where the closed-form fragment was left
     behind - the spots where analysis cost scales with data size. *)
  let fallbacks = Lattice.fallback_count () - fallbacks_before in
  if fallbacks > 0 && !(Lattice.mode_cell ()) <> Lattice.Enumerated_only then
    Diag.addf diags ~severity:Diag.Info ~stage:Diag.Lint
      ~code:"LINT-SYMBOLIC-FALLBACK"
      "%d analysis step(s) left the closed-form symbolic fragment and fell \
       back to address enumeration (per-stage breakdown under the \
       symbolic.fallback.* counters in --profile)"
      fallbacks;
  { prog; env; machine; lcg; model; solution; plan; diags }

let diagnostics t = Diag.to_list t.diags
let degraded t = Diag.has_errors t.diags

let record_comm_error t msg =
  Diag.add t.diags ~severity:Diag.Error ~stage:Diag.Comm ~code:"COMM-SIZE" msg

let simulate ?rounds t =
  Dsmsim.Exec.run ?rounds ~on_error:(record_comm_error t) t.lcg t.plan t.machine

let simulate_baseline ?rounds t =
  Dsmsim.Exec.run ?rounds ~on_error:(record_comm_error t) t.lcg
    (Ilp.Distribution.block_plan t.lcg)
    t.machine

let efficiency t = ((simulate t).efficiency, (simulate_baseline t).efficiency)

(* The analysis payload alone (LCG, model, solution, plan).  The
   --enum-oracle differential compares this byte for byte between the
   symbolic and enumerated accountings; diagnostics are compared
   structurally on the side because the fallback-visibility diagnostic
   is mode-dependent by design. *)
let report_core ppf t =
  Format.fprintf ppf "@[<v>%a@,=== Constraint model (Table 2 form) ===@,%a@,"
    Locality.Lcg.pp t.lcg Ilp.Model.pp t.model;
  Format.fprintf ppf "=== Solution ===@,%a@," (Ilp.Solve.pp t.model)
    t.solution;
  Format.fprintf ppf "%a" Ilp.Distribution.pp t.plan;
  Format.fprintf ppf "@]"

let report ppf t =
  Format.fprintf ppf "@[<v>%a" report_core t;
  (match diagnostics t with
  | [] -> ()
  | ds ->
      Format.fprintf ppf "@,=== Diagnostics ===@,%a" Diag.pp_table ds);
  Format.fprintf ppf "@]"
