open Locality

let markdown (t : Pipeline.t) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Locality analysis report: %s\n\n" t.prog.prog_name;
  add "- processors: **%d**\n- environment: `%s`\n\n" t.lcg.h
    (Format.asprintf "%a" Symbolic.Env.pp t.env);

  add "## Locality-Communication Graph\n\n```\n%s```\n\n"
    (Format.asprintf "%a" Lcg.pp t.lcg);
  add "<details><summary>Graphviz</summary>\n\n```dot\n%s```\n</details>\n\n"
    (Lcg.to_dot t.lcg);

  add "## Constraint model (Table 2 form)\n\n```\n%s```\n\n"
    (Format.asprintf "%a" Ilp.Model.pp t.model);

  add "## Solution and distribution plan\n\n";
  add "objective **%.1f** = load imbalance %.1f + communication %.1f\n\n"
    t.solution.objective t.solution.d_cost t.solution.c_cost;
  List.iter
    (fun b ->
      add "- broken `%s`\n\n"
        (Format.asprintf "%a" (Ilp.Solve.pp_broken t.model) b))
    t.solution.broken;
  add "```\n%s```\n\n" (Format.asprintf "%a" Ilp.Distribution.pp t.plan);

  add "## Chains\n\n```\n%s```\n\n"
    (String.concat "\n"
       (List.map
          (fun c -> Format.asprintf "%a" Chain.pp c)
          (Chain.summaries t.lcg)));

  let sched =
    Dsmsim.Comm.generate ~on_error:(Pipeline.record_comm_error t) t.lcg t.plan
  in
  add "## Communication schedule\n\n";
  add
    "- %d redistribution events, %d frontier events\n- %d aggregated \
     messages, %d words total\n\n"
    (List.length (Dsmsim.Comm.redistributions sched))
    (List.length (Dsmsim.Comm.frontiers sched))
    (Dsmsim.Comm.message_count sched)
    (Dsmsim.Comm.total_words sched);

  add "## Simulation\n\n";
  let run = Pipeline.simulate t in
  let base = Pipeline.simulate_baseline t in
  add "| plan | efficiency | remote accesses | T_par (cycles) |\n";
  add "|---|---|---|---|\n";
  add "| LCG-derived | %.1f%% | %d | %.0f |\n" (100. *. run.efficiency)
    run.total_remote run.par_time;
  add "| BLOCK baseline | %.1f%% | %d | %.0f |\n\n" (100. *. base.efficiency)
    base.total_remote base.par_time;

  let rounds = if t.prog.repeats then 2 else 1 in
  let v = Exec.Validate.run ~rounds t.lcg t.plan in
  add "## Dataflow validation\n\n";
  add
    "%s - %d reads replayed against versioned memory, %d stale.\n"
    (match Exec.Validate.verdict v with
    | Pass -> "**PASS**"
    | Stale -> "**FAIL**"
    | Checked_nothing -> "**CHECKED NOTHING**")
    v.reads v.stale;

  (match Pipeline.diagnostics t with
  | [] -> ()
  | ds ->
      add "\n## Diagnostics\n\n";
      add "| severity | stage | code | message |\n|---|---|---|---|\n";
      List.iter
        (fun (d : Diag.t) ->
          add "| %s | %s | `%s` | %s |\n"
            (Diag.severity_to_string d.severity)
            (Diag.stage_to_string d.stage)
            d.code d.message)
        ds);
  Buffer.contents buf
