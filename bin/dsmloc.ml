(* dsmloc: command-line front end for the locality analysis pipeline.

     dsmloc list
     dsmloc analyze  <code> [--size N] [--procs H] [--strict] [--max-errors N]
     dsmloc batch    [CODE...] [--all] [--jobs N] [--size N] [--procs H,H..]
                              [--inject-crash CODE]
     dsmloc lcg      <code> [--size N] [--procs H]
     dsmloc solve    <code> [--size N] [--procs H]
     dsmloc simulate <code> [--size N] [--procs H] [--baseline]
                            [--inject-faults SEED:RATE] [--retries N]
     dsmloc validate <code> [--size N] [--procs H]
                            [--inject-faults SEED:RATE] [--retries N]
     dsmloc sweep    <code> [--size N]
     dsmloc file     <path.dsm> [--procs H] [--env K=V,K=V]
     dsmloc fuzz     [--count N] [--seed S] [--jobs N] [--deep-every N]
                     [--determinism-sample N] [--wall-cap S] [--out DIR]
                     [--inject-mutation] [--no-shrink]

   Exit codes: 0 clean; 1 fatal (bad arguments, parse error, strict-mode
   failure, too many errors); 2 the analysis degraded (error-severity
   diagnostics recorded); 3 dataflow validation found stale reads;
   4 `run --validate` checked nothing (no reads checked and no content
   cells compared).  3 and 2 take precedence over 4.
*)

open Cmdliner

let code_arg =
  let doc =
    Printf.sprintf "Benchmark code to analyze (%s)."
      (String.concat ", " Codes.Registry.names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CODE" ~doc)

(* "B^E" power notation.  For --size it names the problem extent and
   maps onto the registry's power-of-two exponent knob (so `--size
   2^30` selects a 2^30-element extent); everywhere else it is the
   literal value (`--procs 2^10` is 1024 processors). *)
let pow_split s =
  match String.index_opt s '^' with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let size_conv =
  let parse s =
    match pow_split s with
    | None -> (
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (`Msg (Printf.sprintf "invalid size %S" s)))
    | Some (b, e) -> (
        match (int_of_string_opt b, int_of_string_opt e) with
        | Some 2, Some e when e >= 0 && e <= 62 -> Ok e
        | Some _, Some _ ->
            Error
              (`Msg
                "power-notation sizes must be 2^E with 0 <= E <= 62 (the \
                 size knob is a power-of-two exponent)")
        | _ -> Error (`Msg (Printf.sprintf "invalid size %S" s)))
  in
  Arg.conv (parse, Format.pp_print_int)

let pow_int_conv =
  let parse s =
    let plain () =
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
    in
    match pow_split s with
    | None -> plain ()
    | Some (b, e) -> (
        match (int_of_string_opt b, int_of_string_opt e) with
        | Some b, Some e when b > 0 && e >= 0 ->
            let rec go acc k =
              if k = 0 then Ok acc
              else if acc > max_int / b then
                Error (`Msg (Printf.sprintf "%S overflows" s))
              else go (acc * b) (k - 1)
            in
            go 1 e
        | _ -> plain ())
  in
  Arg.conv (parse, Format.pp_print_int)

let size_arg =
  let doc =
    "Problem-size knob (code-specific exponent).  Power notation names \
     the extent directly: $(b,--size 2^30) selects a 2^30-element \
     problem."
  in
  Arg.(value & opt (some size_conv) None & info [ "size"; "s" ] ~docv:"N" ~doc)

let procs_arg =
  let doc = "Number of processors H (power notation accepted: 2^10)." in
  Arg.(value & opt pow_int_conv 4 & info [ "procs"; "H" ] ~docv:"H" ~doc)

let symbolic_only_arg =
  let doc =
    "Refuse enumeration fallbacks: an analysis step outside the \
     closed-form symbolic fragment fails (recoverable, surfaced as a \
     diagnostic) instead of silently enumerating addresses."
  in
  Arg.(value & flag & info [ "symbolic-only" ] ~doc)

let enum_only_arg =
  let doc =
    "Force the historical enumerated accounting everywhere (the \
     differential baseline for --enum-oracle)."
  in
  Arg.(value & flag & info [ "enum-only" ] ~doc)

let install_mode symbolic_only enum_only =
  match (symbolic_only, enum_only) with
  | true, true ->
      prerr_endline "--symbolic-only and --enum-only are mutually exclusive";
      exit 1
  | true, false -> Symbolic.Lattice.mode := Symbolic.Lattice.Symbolic_only
  | false, true -> Symbolic.Lattice.mode := Symbolic.Lattice.Enumerated_only
  | false, false -> ()

let mode_term = Term.(const install_mode $ symbolic_only_arg $ enum_only_arg)

let enum_oracle_arg =
  let doc =
    "Differential oracle: run the analysis twice - closed-form symbolic \
     and enumerated - and compare the rendered reports byte for byte; a \
     divergence prints the first differing line and exits 1."
  in
  Arg.(value & flag & info [ "enum-oracle" ] ~doc)

let baseline_arg =
  let doc = "Use the naive BLOCK / owner-computes baseline plan." in
  Arg.(value & flag & info [ "baseline" ] ~doc)

let strict_arg =
  let doc =
    "Disable the degradation ladder: the first recoverable analysis \
     failure aborts the run instead of falling back."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let max_errors_arg =
  let doc =
    "Abort (exit 1) once more than $(docv) error-severity diagnostics \
     have been recorded."
  in
  Arg.(value & opt (some int) None & info [ "max-errors" ] ~docv:"N" ~doc)

let faults_conv =
  let parse s =
    match Dsmsim.Fault.parse s with Ok v -> Ok v | Error e -> Error (`Msg e)
  in
  let print ppf s = Format.pp_print_string ppf (Dsmsim.Fault.to_string s) in
  Arg.conv (parse, print)

let faults_arg =
  let doc =
    "Inject deterministic message faults into the communication schedule: \
     $(docv) is SEED:RATE (drop rate) or SEED:DROP:DUP:TRUNC."
  in
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "inject-faults" ] ~docv:"SPEC" ~doc)

let retries_arg =
  let doc = "Bounded resend budget per faulted message (default 0)." in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let profile_arg =
  let doc =
    "Print this run's metrics (pipeline stage timers, kernel counters, \
     artifact cache hits and misses) as a table on stderr when the command \
     exits; cells the run never touched are left out."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_json_arg =
  let doc = "Write the metrics registry as JSON to $(docv) on exit." in
  Arg.(
    value & opt (some string) None & info [ "profile-json" ] ~docv:"FILE" ~doc)

(* Emission happens in [at_exit] because the exit-code contract above
   leaves commands through [exit] at many points (degraded runs exit 2
   from [finish]); the profile must still be written on those paths. *)
let install_profile profile json_file =
  if profile || json_file <> None then
    at_exit (fun () ->
        let snap = Symbolic.Metrics.snapshot () in
        if profile then
          Format.eprintf "%a@?" Symbolic.Metrics.pp_table snap;
        match json_file with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (Symbolic.Metrics.to_json snap);
            output_char oc '\n';
            close_out oc)

let profile_term = Term.(const install_profile $ profile_arg $ profile_json_arg)

let with_entry name size f =
  match Codes.Registry.find name with
  | entry ->
      let size = Option.value size ~default:entry.default_size in
      f entry (entry.env_of_size size)
  | exception Not_found ->
      Printf.eprintf "unknown code %S; try: %s\n" name
        (String.concat ", " Codes.Registry.names);
      exit 1

let run_pipeline ?(strict = false) ?max_errors ?(autopar = false) prog env h =
  let diags = Core.Diag.collector ?max_errors () in
  match
    (* Certified auto-parallelization: the descriptor-based race
       certifier decides loops statically, sampling is only the
       fallback, and any static/dynamic disagreement surfaces as a
       RACE-ORACLE-MISMATCH diagnostic. *)
    let prog = if autopar then Core.Lint.autopar ~diags prog else prog in
    Core.Pipeline.run ~strict ~diags prog ~env ~h
  with
  | t -> t
  | exception Core.Diag.Too_many_errors n ->
      Printf.eprintf "aborted: more than %d error-severity diagnostics\n" n;
      exit 1
  | exception Core.Lint.Failed ds ->
      Format.eprintf "%a@?" Core.Diag.pp_table ds;
      Printf.eprintf "strict mode: lint found errors\n";
      exit 1
  | exception e when strict ->
      Printf.eprintf "strict mode: %s\n" (Printexc.to_string e);
      exit 1

(* Print any accumulated diagnostics to stderr (stdout carries the
   command's payload) and translate the run's outcome into the exit
   code contract above. *)
let finish ?(failed = false) t =
  (match Core.Pipeline.diagnostics t with
  | [] -> ()
  | ds -> Format.eprintf "%a@?" Core.Diag.pp_table ds);
  if failed then exit 3;
  if Core.Pipeline.degraded t then exit 2

(* Simulation and schedule generation replay the program itself; a
   program whose sizes or bounds do not evaluate cannot be replayed,
   and there is no further rung to degrade to - surface as fatal with
   whatever diagnostics were collected. *)
let fatal_guard t f =
  let fatal why =
    (match Core.Pipeline.diagnostics t with
    | [] -> ()
    | ds -> Format.eprintf "%a@?" Core.Diag.pp_table ds);
    Printf.eprintf "fatal: cannot replay the program (%s)\n" why;
    exit 1
  in
  try f () with
  | e when Core.Pipeline.recoverable e -> fatal (Core.Pipeline.describe e)
  | Exec.Runner.Unsupported m -> fatal ("unsupported: " ^ m)

let list_cmd =
  let f () =
    List.iter
      (fun (e : Codes.Registry.entry) ->
        Printf.printf "%-10s (default size %d): %d phases, arrays %s\n" e.name
          e.default_size
          (List.length e.program.phases)
          (String.concat ", "
             (List.map
                (fun (a : Ir.Types.array_decl) -> a.name)
                e.program.arrays)))
      Codes.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available benchmark codes.")
    Term.(const f $ const ())

let analyze_cmd =
  let f () () name size h strict max_errors enum_oracle =
    with_entry name size (fun entry env ->
        if enum_oracle then begin
          (* Render the same analysis under both accountings.  The
             artifact stores key mode-dependent entries on the mode
             tag, so the two runs cannot poison each other. *)
          let render mode =
            Symbolic.Lattice.mode := mode;
            let t = run_pipeline ~strict ?max_errors entry.program env h in
            (Format.asprintf "%a@." Core.Pipeline.report_core t, t)
          in
          let base_mode =
            match !Symbolic.Lattice.mode with
            | Symbolic.Lattice.Enumerated_only -> Symbolic.Lattice.Auto
            | m -> m
          in
          let sym, t = render base_mode in
          let enu, te = render Symbolic.Lattice.Enumerated_only in
          Format.printf "%a@." Core.Pipeline.report t;
          (match Fuzz.Differ.first_diff sym enu with
          | Some (line, s, e) ->
              Printf.eprintf
                "enum-oracle: symbolic and enumerated reports diverge at \
                 line %d:\n\
                \  symbolic:   %s\n\
                \  enumerated: %s\n"
                line s e;
              exit 1
          | None ->
              if Fuzz.Differ.diag_sig t <> Fuzz.Differ.diag_sig te then begin
                Printf.eprintf
                  "enum-oracle: symbolic and enumerated diagnostics diverge\n";
                exit 1
              end;
              Printf.eprintf "enum-oracle: reports identical\n");
          if Core.Pipeline.degraded t then exit 2
        end
        else begin
          let t = run_pipeline ~strict ?max_errors entry.program env h in
          Format.printf "%a@." Core.Pipeline.report t;
          if Core.Pipeline.degraded t then exit 2
        end)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Full pipeline report: LCG, model, solution, plan.")
    Term.(
      const f $ profile_term $ mode_term $ code_arg $ size_arg $ procs_arg
      $ strict_arg $ max_errors_arg $ enum_oracle_arg)

let lcg_cmd =
  let f () () name size h =
    with_entry name size (fun entry env ->
        let lcg = Locality.Lcg.build entry.program ~env ~h in
        Format.printf "%a@." Locality.Lcg.pp lcg)
  in
  Cmd.v (Cmd.info "lcg" ~doc:"Print the Locality-Communication Graph.")
    Term.(const f $ profile_term $ mode_term $ code_arg $ size_arg $ procs_arg)

let solve_cmd =
  let f () () name size h strict max_errors =
    with_entry name size (fun entry env ->
        let t = run_pipeline ~strict ?max_errors entry.program env h in
        Format.printf "%a@.@." Ilp.Model.pp t.model;
        Format.printf "objective %.1f (D %.1f + C %.1f)@." t.solution.objective
          t.solution.d_cost t.solution.c_cost;
        Format.printf "%a@." Ilp.Distribution.pp t.plan;
        finish t)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Print the Table-2 constraint model and the solved distribution.")
    Term.(
      const f $ profile_term $ mode_term $ code_arg $ size_arg $ procs_arg
      $ strict_arg $ max_errors_arg)

let simulate_cmd =
  let f () () name size h baseline strict max_errors faults retries =
    with_entry name size (fun entry env ->
        let t = run_pipeline ~strict ?max_errors entry.program env h in
        let r =
          fatal_guard t (fun () ->
              if baseline then Core.Pipeline.simulate_baseline t
              else Core.Pipeline.simulate ?faults ~retries t)
        in
        Format.printf "%a@." Dsmsim.Exec.pp r;
        finish t)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Replay the code on the DSM machine model.")
    Term.(
      const f $ profile_term $ mode_term $ code_arg $ size_arg $ procs_arg
      $ baseline_arg $ strict_arg $ max_errors_arg $ faults_arg $ retries_arg)

let sweep_cmd =
  let f () () name size =
    with_entry name size (fun entry env ->
        Printf.printf "%4s %12s %12s\n" "H" "LCG eff" "BLOCK eff";
        List.iter
          (fun h ->
            let t = run_pipeline entry.program env h in
            let eff, base = fatal_guard t (fun () -> Core.Pipeline.efficiency t) in
            Printf.printf "%4d %11.1f%% %11.1f%%\n%!" h (100. *. eff)
              (100. *. base))
          [ 1; 2; 4; 8; 16; 32; 64 ])
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Efficiency sweep over processor counts.")
    Term.(const f $ profile_term $ mode_term $ code_arg $ size_arg)

let table1_cmd =
  let f () = Format.printf "%a" Locality.Table1.pp_grid () in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the paper's Table 1 edge classification.")
    Term.(const f $ const ())

let stability_cmd =
  let f name =
    with_entry name None (fun entry _env ->
        let t = Locality.Stability.analyze entry.program in
        Format.printf "@[<v>%a@]@." Locality.Stability.pp t;
        Format.printf "all edges stable: %b@." (Locality.Stability.all_stable t))
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"LCG label stability across sampled sizes and machine widths.")
    Term.(const f $ code_arg)

let validate_cmd =
  let f () () name size h strict max_errors faults retries =
    with_entry name size (fun entry env ->
        let t = run_pipeline ~strict ?max_errors entry.program env h in
        fatal_guard t @@ fun () ->
        let rounds = if entry.program.repeats then 2 else 1 in
        let sched =
          match faults with
          | None -> None
          | Some spec ->
              let base =
                Dsmsim.Comm.generate
                  ~on_error:(Core.Pipeline.record_comm_error t)
                  t.lcg t.plan
              in
              let delivered, st = Dsmsim.Fault.apply spec ~retries base in
              Core.Pipeline.record_fault_stats t st;
              Some delivered
        in
        let r =
          Exec.Validate.run ~rounds
            ~on_error:(Core.Pipeline.record_comm_error t)
            ?sched t.lcg t.plan
        in
        Format.printf "%a@." Exec.Validate.pp r;
        finish ~failed:(not (Exec.Validate.ok r)) t)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Replay with versioned memory: certify every read is fresh \
          (optionally under injected message faults).")
    Term.(
      const f $ profile_term $ mode_term $ code_arg $ size_arg $ procs_arg
      $ strict_arg $ max_errors_arg $ faults_arg $ retries_arg)

let report_cmd =
  let f () () name size h strict max_errors =
    with_entry name size (fun entry env ->
        let t = run_pipeline ~strict ?max_errors entry.program env h in
        print_string (fatal_guard t (fun () -> Core.Report.markdown t));
        if Core.Pipeline.degraded t then exit 2)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Full markdown analysis report.")
    Term.(
      const f $ profile_term $ mode_term $ code_arg $ size_arg $ procs_arg
      $ strict_arg $ max_errors_arg)

let spmd_cmd =
  let f name size h =
    with_entry name size (fun entry env ->
        let t = run_pipeline entry.program env h in
        print_string
          (fatal_guard t (fun () -> Codegen.Spmd.generate t.lcg t.plan t.machine));
        finish t)
  in
  Cmd.v
    (Cmd.info "spmd" ~doc:"Emit the SPMD pseudo-code the plan implies.")
    Term.(const f $ code_arg $ size_arg $ procs_arg)

let run_cmd =
  let domains_arg =
    let doc = "Number of OCaml domains to execute on (the machine width H)." in
    Arg.(value & opt pow_int_conv 4 & info [ "domains"; "d" ] ~docv:"H" ~doc)
  in
  let rounds_arg =
    let doc =
      "Traversals of the phase sequence (default: 2 for repeating programs, \
       1 otherwise)."
    in
    Arg.(value & opt (some int) None & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let spin_arg =
    let doc =
      "Busy-loop iterations per abstract work cycle, scaling statement \
       compute into real time."
    in
    Arg.(value & opt int 0 & info [ "spin" ] ~docv:"K" ~doc)
  in
  let validate_run_arg =
    let doc =
      "Fail (exit 3) on any stale read or final-content mismatch against \
       the sequential replay, not just on schedule-parity violations.  \
       Exit 4 when neither check compared anything (no reads checked, \
       no content cells); warn when only one of them is empty."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let f name size h rounds spin validate =
    with_entry name size (fun entry env ->
        let t = run_pipeline entry.program env h in
        fatal_guard t @@ fun () ->
        let rounds =
          match rounds with
          | Some r -> r
          | None -> if entry.program.repeats then 2 else 1
        in
        let r = Exec.Runner.execute ~rounds ~spin t.lcg t.plan in
        let sim =
          Dsmsim.Exec.run ~rounds
            ~on_error:(Core.Pipeline.record_comm_error t)
            t.lcg t.plan t.machine
        in
        Format.printf "%a@." Exec.Runner.pp r;
        Format.printf
          "simulator: T_par=%.0f T_seq=%.0f efficiency=%.1f%% (%d remote \
           accesses predicted, %d measured)@."
          sim.par_time sim.seq_time
          (100.0 *. sim.efficiency)
          sim.total_remote
          (r.remote_gets + r.remote_puts);
        let failed =
          (not (Exec.Runner.schedule_parity r))
          || r.errors <> []
          || (validate && (r.stale > 0 || r.content_mismatches > 0))
        in
        (* A validation that compared nothing is not a pass: both
           checks empty exits 4, one of them empty warns. *)
        let no_reads = r.reads_checked = 0 and no_cells = r.content_cells = 0 in
        let vacuous = validate && no_reads && no_cells in
        if vacuous then
          prerr_endline
            "error: --validate checked nothing (0 reads checked, 0 \
             content cells)"
        else if validate then begin
          if no_reads then
            prerr_endline
              "warning: --validate staleness check is vacuous (0 reads \
               checked)";
          if no_cells then
            Printf.eprintf
              "warning: --validate content check is vacuous (0 content \
               cells; skipped %s)\n"
              (String.concat " " r.arrays_skipped)
        end;
        finish ~failed t;
        if vacuous then exit 4)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the compiled program on OCaml domains over put-style \
          shared windows and check it against the schedule and a \
          sequential replay.")
    Term.(
      const f $ code_arg $ size_arg $ domains_arg $ rounds_arg $ spin_arg
      $ validate_run_arg)

let dot_cmd =
  let f name size h =
    with_entry name size (fun entry env ->
        let lcg = Locality.Lcg.build entry.program ~env ~h in
        print_string (Locality.Lcg.to_dot lcg))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the LCG as Graphviz (pipe into `dot -Tsvg`).")
    Term.(const f $ code_arg $ size_arg $ procs_arg)

let comm_cmd =
  let f name size h =
    with_entry name size (fun entry env ->
        let t = run_pipeline entry.program env h in
        let sched =
          fatal_guard t (fun () ->
              Dsmsim.Comm.generate
                ~on_error:(Core.Pipeline.record_comm_error t)
                t.lcg t.plan)
        in
        Format.printf "%a@." Dsmsim.Comm.pp sched;
        Format.printf
          "total: %d messages, %d words (%d redistribution events, %d frontier events)@."
          (Dsmsim.Comm.message_count sched)
          (Dsmsim.Comm.total_words sched)
          (List.length (Dsmsim.Comm.redistributions sched))
          (List.length (Dsmsim.Comm.frontiers sched));
        finish t)
  in
  Cmd.v
    (Cmd.info "comm"
       ~doc:"Print the generated single-sided communication schedule.")
    Term.(const f $ code_arg $ size_arg $ procs_arg)

let file_cmd =
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Surface-language program (.dsm; see lib/frontend/parse.mli).")
  in
  let env_arg =
    let doc = "Comma-separated parameter bindings, e.g. N=32,M=16." in
    Arg.(value & opt string "" & info [ "env"; "e" ] ~docv:"BINDINGS" ~doc)
  in
  let autopar_arg =
    let doc =
      "Ignore doall markings and derive parallel loops automatically."
    in
    Arg.(value & flag & info [ "autopar" ] ~doc)
  in
  let f () () path h bindings autopar strict max_errors =
    match Frontend.Parse.program_file path with
    | exception Frontend.Parse.Error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        exit 1
    | prog ->
        let env =
          if bindings = "" then
            (* default: midpoint of each declared parameter range *)
            try Fuzz.Gen.midpoint_env prog
            with Symbolic.Env.Unbound w ->
              let v, _ =
                List.find
                  (function
                    | _, Symbolic.Assume.Pow2_of b -> b = w | _ -> false)
                  (Symbolic.Assume.to_list prog.params)
              in
              Printf.eprintf
                "parameter %s = 2^%s: %s is not bound (declare it first or \
                 pass --env)\n"
                v w w;
              exit 1
          else
            String.split_on_char ',' bindings
            |> List.fold_left
                 (fun env kv ->
                   match String.split_on_char '=' kv with
                   | [ k; v ] -> Symbolic.Env.add k (int_of_string v) env
                   | _ ->
                       Printf.eprintf "bad binding %S\n" kv;
                       exit 1)
                 Symbolic.Env.empty
        in
        let t = run_pipeline ~strict ?max_errors ~autopar prog env h in
        Format.printf "%a@.@." Core.Pipeline.report t;
        let eff, base = fatal_guard t (fun () -> Core.Pipeline.efficiency t) in
        Format.printf "Simulated efficiency: %.1f%% (LCG) vs %.1f%% (BLOCK)@."
          (100. *. eff) (100. *. base);
        if Core.Pipeline.degraded t then exit 2
  in
  Cmd.v
    (Cmd.info "file"
       ~doc:"Parse a surface-language program and run the full pipeline on it.")
    Term.(
      const f $ profile_term $ mode_term $ path_arg $ procs_arg $ env_arg
      $ autopar_arg $ strict_arg $ max_errors_arg)

(* ------------------------------------------------------------------ *)
(* batch: sharded multi-process analysis over many codes at once.

   Jobs and results cross the fork boundary by Marshal, so both are
   plain records of strings/ints; the worker renders its report and
   diagnostics to strings before shipping them back. *)

type batch_job = {
  bj_name : string;
  bj_size : int;
  bj_h : int;
  bj_crash : bool;  (* fault injection: die on the first attempt *)
}

type batch_result = {
  br_body : string;  (* rendered pipeline report *)
  br_diags : string;  (* rendered diagnostics table, [""] when clean *)
  br_degraded : bool;
}

let batch_worker ~attempt (j : batch_job) =
  (* --inject-crash: SIGKILL ourselves on the first attempt only, so
     the retry (on a fresh worker) succeeds and the batch exits 0 with
     the loss on record as a POOL-WORKER-LOST diagnostic. *)
  if j.bj_crash && attempt = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
  let entry = Codes.Registry.find j.bj_name in
  let env = entry.env_of_size j.bj_size in
  let diags = Core.Diag.collector () in
  let t = Core.Pipeline.run ~diags entry.program ~env ~h:j.bj_h in
  {
    br_body = Format.asprintf "%a" Core.Pipeline.report t;
    br_diags =
      (match Core.Pipeline.diagnostics t with
      | [] -> ""
      | ds -> Format.asprintf "%a" Core.Diag.pp_table ds);
    br_degraded = Core.Pipeline.degraded t;
  }

let batch_cmd =
  let codes_arg =
    let doc =
      Printf.sprintf "Benchmark codes to analyze (default: all of %s)."
        (String.concat ", " Codes.Registry.names)
    in
    Arg.(value & pos_all string [] & info [] ~docv:"CODE" ~doc)
  in
  let all_arg =
    let doc = "Analyze every registry benchmark (in addition to CODEs)." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let jobs_arg =
    let doc = "Number of forked worker processes." in
    Arg.(value & opt int 4 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let procs_list_arg =
    let doc =
      "Comma-separated processor counts; each code is analyzed once per \
       count."
    in
    Arg.(
      value & opt (list pow_int_conv) [ 4 ] & info [ "procs"; "H" ] ~docv:"H,.." ~doc)
  in
  let crash_arg =
    let doc =
      "Fault injection: the worker running $(docv)'s first attempt kills \
       itself (SIGKILL) mid-job, exercising the pool's crash-recovery \
       path.  The job is retried on a fresh worker."
    in
    Arg.(
      value & opt (some string) None & info [ "inject-crash" ] ~docv:"CODE" ~doc)
  in
  let f () () names all jobs size hs crash =
    let names = names @ (if all then Codes.Registry.names else []) in
    let names = if names = [] then Codes.Registry.names else names in
    List.iter
      (fun n ->
        if not (List.mem n Codes.Registry.names) then begin
          Printf.eprintf "unknown code %S; try: %s\n" n
            (String.concat ", " Codes.Registry.names);
          exit 1
        end)
      names;
    (match crash with
    | Some c when not (List.mem c names) ->
        Printf.eprintf "--inject-crash %s: code is not part of this batch\n" c;
        exit 1
    | _ -> ());
    let job_list =
      List.concat_map
        (fun name ->
          let entry = Codes.Registry.find name in
          let sz = Option.value size ~default:entry.default_size in
          List.map
            (fun h ->
              { bj_name = name; bj_size = sz; bj_h = h;
                bj_crash = crash = Some name })
            hs)
        names
    in
    let diags = Core.Diag.collector () in
    let failed = ref false in
    let describe (j : batch_job) =
      Printf.sprintf "%s (size %d, H=%d)" j.bj_name j.bj_size j.bj_h
    in
    let stream idx outcome =
      let j = List.nth job_list idx in
      match outcome with
      | Core.Pool.Done d ->
          List.iter
            (fun reason ->
              Core.Diag.addf diags ~severity:Core.Diag.Error
                ~stage:Core.Diag.Pool ~where:j.bj_name ~code:"POOL-WORKER-LOST"
                "job %s lost an attempt (%s); retried on a fresh worker"
                (describe j) reason)
            d.lost;
          let (r : batch_result) = d.value in
          Printf.printf "=== %s ===\n" (describe j);
          print_string r.br_body;
          print_newline ();
          prerr_string r.br_diags;
          if r.br_degraded then failed := true
      | Core.Pool.Failed { attempts; reasons } ->
          Core.Diag.addf diags ~severity:Core.Diag.Error ~stage:Core.Diag.Pool
            ~where:j.bj_name ~code:"POOL-WORKER-LOST"
            "job %s failed permanently after %d attempts (%s)" (describe j)
            attempts
            (String.concat "; " reasons);
          Printf.printf "=== %s ===\n" (describe j);
          Printf.printf "FAILED after %d attempts\n\n" attempts;
          failed := true
    in
    let _outcomes, merged =
      Core.Pool.map ~workers:jobs ~f:batch_worker ~stream job_list
    in
    (* Fold the workers' per-job snapshots into the parent registry so
       the at_exit --profile/--profile-json report is fleet-wide. *)
    Symbolic.Metrics.absorb merged;
    (match Core.Diag.to_list diags with
    | [] -> ()
    | ds -> Format.eprintf "%a@?" Core.Diag.pp_table ds);
    if !failed then exit 2
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze many codes in parallel on a pool of forked worker \
          processes: crash-isolated, deterministically ordered output, \
          fleet-merged metrics.")
    Term.(
      const f $ profile_term $ mode_term $ codes_arg $ all_arg $ jobs_arg
      $ size_arg $ procs_list_arg $ crash_arg)

let lint_cmd =
  let targets_arg =
    let doc =
      "Registry benchmark name or surface-language file (.dsm) to lint."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  let all_arg =
    let doc = "Lint every registry benchmark (in addition to TARGETs)." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let lint_strict_arg =
    let doc = "Fail (exit 2) on warning-severity findings too." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let f targets all strict =
    let targets = targets @ if all then Codes.Registry.names else [] in
    if targets = [] then begin
      Printf.eprintf
        "nothing to lint; give a benchmark name or a .dsm file, or --all\n";
      exit 1
    end;
    let failed = ref false in
    List.iter
      (fun target ->
        let prog =
          if Filename.check_suffix target ".dsm" || Sys.file_exists target then
            match Frontend.Parse.program_file target with
            | p -> p
            | exception Frontend.Parse.Error { line; message } ->
                Printf.eprintf "%s:%d: %s\n" target line message;
                exit 1
            | exception Sys_error msg ->
                Printf.eprintf "%s\n" msg;
                exit 1
          else
            match Codes.Registry.find target with
            | e -> e.program
            | exception Not_found ->
                Printf.eprintf "unknown target %S; try a .dsm path or: %s\n"
                  target
                  (String.concat ", " Codes.Registry.names);
                exit 1
        in
        (* one tab-separated line per finding: machine-readable, stable
           columns target/severity/code/where/message *)
        List.iter
          (fun (d : Core.Diag.t) ->
            Printf.printf "%s\t%s\t%s\t%s\t%s\n" target
              (Core.Diag.severity_to_string d.severity)
              d.code
              (Core.Diag.where_to_string d)
              d.message;
            match d.severity with
            | Core.Diag.Error -> failed := true
            | Core.Diag.Warning -> if strict then failed := true
            | Core.Diag.Info -> ())
          (Core.Lint.check prog))
      targets;
    if !failed then exit 2
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static lint pass (LINT-* catalog) over benchmarks or .dsm \
          files; exits 2 when any error-severity finding is reported.")
    Term.(const f $ targets_arg $ all_arg $ lint_strict_arg)

(* ------------------------------------------------------------------ *)
(* fuzz: the mass differential-fuzzing campaign (Fuzz.Campaign) behind
   a thin flag surface.  Exit codes: 0 campaign clean, 2 findings. *)

let fuzz_cmd =
  let count_arg =
    let doc = "Number of programs to generate and run through the battery." in
    Arg.(value & opt int 200 & info [ "count"; "n" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Campaign seed: program $(i,i) is deterministic in (seed, $(i,i))."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let jobs_arg =
    let doc = "Number of forked worker processes." in
    Arg.(value & opt int 4 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let deep_arg =
    let doc =
      "Every $(docv)-th program uses the deep 50-100-phase profile (0 \
       disables deep programs)."
    in
    Arg.(value & opt int 25 & info [ "deep-every" ] ~docv:"N" ~doc)
  in
  let det_arg =
    let doc =
      "Re-run the first $(docv) programs on a single worker and require \
       verdict-vector equality (the 1-vs-N determinism differential; 0 \
       disables)."
    in
    Arg.(value & opt int 8 & info [ "determinism-sample" ] ~docv:"N" ~doc)
  in
  let wall_arg =
    let doc =
      "Wall-clock cap in seconds, checked between scheduling chunks; 0 \
       means uncapped."
    in
    Arg.(value & opt float 0. & info [ "wall-cap" ] ~docv:"SECONDS" ~doc)
  in
  let out_arg =
    let doc = "Directory where shrunk reproducers (and .golden snapshots) land." in
    Arg.(
      value
      & opt string (Filename.concat "examples" "programs")
      & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let mutation_arg =
    let doc =
      "Self-test fault injection: skew every closed-form union \
       cardinality by +1 (Symbolic.Lattice.test_card_skew) in every \
       worker.  The enum-parity differential must catch it, so a clean \
       exit under this flag is itself a campaign failure."
    in
    Arg.(value & flag & info [ "inject-mutation" ] ~doc)
  in
  let no_shrink_arg =
    let doc = "Keep failing programs at full size (skip the shrinker)." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let f () count seed jobs deep_every det wall out mutation no_shrink =
    let cfg =
      {
        Fuzz.Campaign.count;
        seed;
        jobs;
        deep_every;
        determinism_sample = det;
        wall_cap = wall;
        out_dir = out;
        skew = (if mutation then 1 else 0);
        shrink = not no_shrink;
      }
    in
    let st = Fuzz.Campaign.run ~log:prerr_endline cfg in
    List.iter
      (fun (fd : Fuzz.Campaign.finding) ->
        Printf.printf "FINDING\t%s\t%d\t%s\t%s\t%s\n" fd.f_profile fd.f_index
          fd.f_check
          (Option.value fd.f_repro ~default:"-")
          fd.f_detail)
      st.s_findings;
    Printf.printf "fuzz: %d/%d programs, %d finding(s)%s\n" st.s_ran count
      (List.length st.s_findings)
      (if st.s_wall_capped then " (wall cap reached)" else "");
    if mutation && st.s_findings = [] then begin
      prerr_endline
        "fuzz: --inject-mutation produced no findings - the differential \
         battery failed to catch a known-bad descriptor algebra";
      exit 1
    end;
    if st.s_findings <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Mass differential fuzzing: generate seeded random phase \
          pipelines, run each through the differential battery \
          (symbolic-vs-enumerated parity, race certifier vs dynamic \
          oracle, ILP vs chain solver, schedule parity, cold-vs-warm, \
          1-vs-N determinism) on a crash-isolated worker pool, and \
          shrink every mismatch to a minimal reproducer.")
    Term.(
      const f $ profile_term $ count_arg $ seed_arg $ jobs_arg $ deep_arg
      $ det_arg $ wall_arg $ out_arg $ mutation_arg $ no_shrink_arg)

let () =
  let info =
    Cmd.info "dsmloc" ~version:"1.0.0"
      ~doc:
        "Access-descriptor-based locality analysis for DSM multiprocessors \
         (Navarro, Asenjo, Zapata, Padua; ICPP'99)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; analyze_cmd; batch_cmd; lcg_cmd; solve_cmd; simulate_cmd; sweep_cmd; comm_cmd; dot_cmd; spmd_cmd; run_cmd; report_cmd; table1_cmd; stability_cmd; validate_cmd; file_cmd; lint_cmd; fuzz_cmd ]))
