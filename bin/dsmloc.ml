(* dsmloc: command-line front end for the locality analysis pipeline.

     dsmloc list
     dsmloc analyze  <code> [--size N] [--procs H] [--strict] [--max-errors N]
     dsmloc batch    [CODE...] [--all] [--jobs N] [--size N] [--procs H,H..]
     dsmloc lcg      <code> [--size N] [--procs H]
     dsmloc solve    <code> [--size N] [--procs H]
     dsmloc simulate <code> [--size N] [--procs H] [--baseline]
     dsmloc validate <code> [--size N] [--procs H]
     dsmloc sweep    <code> [--size N]
     dsmloc file     <path.dsm> [--procs H] [--env K=V,K=V]
     dsmloc fuzz     [--count N] [--seed S] [--jobs N] [--wall-cap S]
                     [--out DIR] [--inject-mutation]

   Every command evaluates to its exit code and [main] exits once.
   Exit codes: 0 clean; 1 fatal (unknown code or target, parse error,
   strict-mode failure, too many errors, a program that cannot be
   replayed); 2 the analysis degraded (error-severity diagnostics
   recorded); 3 dataflow validation found stale reads; 4 a validation
   checked nothing (`validate` checked no reads, `run --validate`
   checked no reads and compared no content cells); 124 malformed or
   out-of-range arguments (a --size whose extent or array sizes
   overflow included), rejected before the command runs.  3 and 2
   take precedence over 4.  Diagnostics go to stderr, except that
   analyze, report and file embed them in the report on stdout.
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
let power_conv ~size =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char '^' s) with
    | [ Some v ] -> Ok v
    | [ Some 2; Some e ] when size && e >= 0 && e <= 62 -> Ok e
    | [ Some _; Some _ ] when size ->
        Error
          (`Msg
            "power-notation sizes must be 2^E with 0 <= E <= 62 (the size \
             knob is a power-of-two exponent)")
    | [ Some b; Some e ] when b > 0 && e >= 0 ->
        let rec go acc k =
          if k = 0 then Ok acc
          else if acc > max_int / b then
            Error (`Msg (Printf.sprintf "%S overflows" s))
          else go (acc * b) (k - 1)
        in
        go 1 e
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid %s %S" (if size then "size" else "integer") s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Numeric flags are range-checked where they are parsed: a value below
   [lo] is a command-line error (exit 124), like a malformed one. *)
let at_least lo conv =
  let pp = Arg.conv_printer conv in
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when v < lo ->
        Error (`Msg (Format.asprintf "%S is out of range (must be >= %a)" s pp lo))
    | r -> r
  in
  Arg.conv (parse, pp)

let at_most hi conv =
  let pp = Arg.conv_printer conv in
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when v > hi ->
        Error (`Msg (Format.asprintf "%S is out of range (must be <= %a)" s pp hi))
    | r -> r
  in
  Arg.conv (parse, pp)

let count = at_least 1 Arg.int
let natural = at_least 0 Arg.int
let width = at_least 1 (power_conv ~size:false)

let size_arg =
  let doc =
    "Problem-size knob (code-specific exponent).  Power notation names \
     the extent directly: $(b,--size 2^30) selects a 2^30-element \
     problem."
  in
  Arg.(
    value
    & opt (some (at_least 0 (power_conv ~size:true))) None
    & info [ "size"; "s" ] ~docv:"N" ~doc)

let procs_arg =
  let doc = "Number of processors H (power notation accepted: 2^10)." in
  Arg.(value & opt width 4 & info [ "procs"; "H" ] ~docv:"H" ~doc)

let symbolic_only_arg =
  let doc =
    "Refuse enumeration fallbacks: an analysis step outside the \
     closed-form symbolic fragment fails (recoverable, surfaced as a \
     diagnostic) instead of silently enumerating addresses."
  in
  Arg.(value & flag & info [ "symbolic-only" ] ~doc)

let mode_term =
  let install symbolic_only =
    if symbolic_only then Symbolic.Lattice.mode := Symbolic.Lattice.Symbolic_only
  in
  Term.(const install $ symbolic_only_arg)

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
  Arg.(value & opt (some natural) None & info [ "max-errors" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    Printf.sprintf
      "Number of jobs run at once, each on a domain of its own; never more \
       than the machine's cores, and at most %d (OCaml keeps %d domains \
       alive, the calling one included)."
      (Core.Jobs.max_domains - 1) Core.Jobs.max_domains
  in
  Arg.(
    value
    & opt (at_most (Core.Jobs.max_domains - 1) count) 4
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let profile_arg =
  let doc =
    "Print this run's metrics (pipeline stage timers, kernel counters, \
     cache hits and misses) as a table on stderr when the command \
     exits; cells the run never touched are left out."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_json_arg =
  let doc = "Write the metrics registry as JSON to $(docv) on exit." in
  Arg.(
    value & opt (some string) None & info [ "profile-json" ] ~docv:"FILE" ~doc)

(* [profiled cmd] adds --profile and --profile-json to [cmd]: the
   metrics are emitted once [cmd] has returned its exit code, whatever
   that code is. *)
let profiled cmd =
  let emit profile json_file code =
    if profile || json_file <> None then begin
      let snap = Symbolic.Metrics.snapshot () in
      if profile then Format.eprintf "%a@?" Symbolic.Metrics.pp_table snap;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Symbolic.Metrics.to_json snap);
              output_char oc '\n'))
        json_file
    end;
    code
  in
  Term.(const emit $ profile_arg $ profile_json_arg $ cmd)

let print_diags = function
  | [] -> ()
  | ds -> Format.eprintf "%a@?" Core.Diag.pp_table ds

let unknown_code name =
  Printf.eprintf "unknown code %S; try: %s\n" name
    (String.concat ", " Codes.Registry.names);
  1

(* Why [env] is out of range for [prog]: the first declared array
   whose size does not evaluate under it. *)
let unsized_array env (prog : Ir.Types.program) =
  List.find_map
    (fun (a : Ir.Types.array_decl) ->
      match Ir.Linearize.array_size env prog a.name with
      | Ok _ -> None
      | Error _ -> Some (Printf.sprintf "the size of array %s does not evaluate" a.name))
    prog.arrays

(* Exit 124 for an option value [v] out of range for [target]. *)
let out_of_range ~option v target why =
  Printf.eprintf "dsmloc: option '%s': %s is out of range for %s (%s)\n" option v
    target why;
  124

(* The environment a registry code runs at, or exit 124 when its
   --size is out of range: the extent 2^size does not fit an int, or a
   declared array's size does not evaluate. *)
let sized_env (entry : Codes.Registry.entry) size =
  let refuse why =
    Error (out_of_range ~option:"--size" (string_of_int size) entry.name why)
  in
  if Codes.Registry.pow2 size <= 0 then
    refuse (Printf.sprintf "2^%d does not fit an int" size)
  else
    let env = entry.env_of_size size in
    match unsized_array env entry.program with
    | None -> Ok env
    | Some why -> refuse why

let with_entry name size f =
  match Codes.Registry.find name with
  | exception Not_found -> unknown_code name
  | entry -> (
      let size = Option.value size ~default:entry.default_size in
      match sized_env entry size with Ok env -> f entry env | Error code -> code)

(* The runner behind every analysis command: the pipeline on [prog],
   then [k] on its result.  [k] prints the command's payload and
   returns its verdict: 0, 1 (a differential diverged), 3 (stale reads)
   or 4 (a vacuous validation).  Diagnostics then go to stderr unless
   the payload [embeds] them, and an error-severity diagnostic turns a
   verdict of 0 or 4 into 2.  Failures the degradation ladder does not
   absorb are fatal: strict mode, the --max-errors cap, and a program
   that [k] cannot replay because its sizes or bounds do not evaluate
   (replay has no further rung to degrade to). *)
let analysis ?(strict = false) ?max_errors ?(autopar = false)
    ?(embeds = false) prog env h k =
  let diags = Core.Diag.collector ?max_errors () in
  let aborted n =
    Printf.eprintf "aborted: more than %d error-severity diagnostics\n" n;
    1
  in
  match
    (* Certified auto-parallelization: the descriptor-based race
       certifier decides loops statically, sampling is only the
       fallback, and any static/dynamic disagreement surfaces as a
       RACE-ORACLE-MISMATCH diagnostic. *)
    let prog = if autopar then Core.Lint.autopar ~diags prog else prog in
    Core.Pipeline.run ~strict ~diags prog ~env ~h
  with
  | exception Core.Diag.Too_many_errors n -> aborted n
  | exception Core.Lint.Failed ds ->
      print_diags ds;
      Printf.eprintf "strict mode: lint found errors\n";
      1
  | exception e when strict ->
      Printf.eprintf "strict mode: %s\n" (Printexc.to_string e);
      1
  | t -> (
      let fatal why =
        print_diags (Core.Pipeline.diagnostics t);
        Printf.eprintf "fatal: cannot replay the program (%s)\n" why;
        1
      in
      match k t with
      | verdict -> (
          if not embeds then print_diags (Core.Pipeline.diagnostics t);
          match verdict with (0 | 4) when Core.Pipeline.degraded t -> 2 | v -> v)
      | exception Core.Diag.Too_many_errors n -> aborted n
      | exception e when Core.Pipeline.recoverable e ->
          fatal (Core.Pipeline.describe e)
      | exception Exec.Runner.Unsupported m -> fatal ("unsupported: " ^ m))

(* [analysis] on a registry code: [k] also sees the registry entry. *)
let registry ?strict ?max_errors ?embeds name size h k =
  with_entry name size @@ fun entry env ->
  analysis ?strict ?max_errors ?embeds entry.program env h (k entry)

(* A command over one registry code: CODE, --size, [width] (--procs
   unless given), --strict and --max-errors when [ladder], and
   --profile, --profile-json and --symbolic-only unless [bare].  [k]'s
   term carries the command's own flags; it prints the payload and
   returns the verdict [analysis] expects. *)
let kernel_cmd ?(ladder = false) ?(bare = false) ?embeds ?(width = procs_arg)
    name ~doc k =
  let ladder_term =
    if ladder then Term.(const (fun s m -> (s, m)) $ strict_arg $ max_errors_arg)
    else Term.const (false, None)
  in
  let run (strict, max_errors) name size h k =
    registry ~strict ?max_errors ?embeds name size h k
  in
  let term = Term.(const run $ ladder_term $ code_arg $ size_arg $ width $ k) in
  Cmd.v (Cmd.info name ~doc)
    (if bare then term else profiled Term.(const (fun () c -> c) $ mode_term $ term))

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
      Codes.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available benchmark codes.")
    Term.(const f $ const ())

let analyze_cmd =
  let f () name size h strict max_errors enum_oracle =
    let report t = Format.printf "%a@." Core.Pipeline.report t in
    if not enum_oracle then
      registry ~strict ?max_errors ~embeds:true name size h (fun _ t ->
          report t;
          0)
    else
      (* Render the same analysis under both accountings.  The two runs
         cannot interfere: the probe banks hold only rows and columns
         derived from the probe seed, never a mode-dependent answer,
         and each run derives its own per-phase facts. *)
      let run k = registry ~strict ?max_errors ~embeds:true name size h (fun _ -> k) in
      let render t = Format.asprintf "%a@." Core.Pipeline.report_core t in
      run @@ fun t ->
      let sym = render t in
      Symbolic.Lattice.mode := Symbolic.Lattice.Enumerated_only;
      run @@ fun te ->
      report t;
      match Fuzz.Differ.first_diff sym (render te) with
      | Some (line, s, e) ->
          Printf.eprintf
            "enum-oracle: symbolic and enumerated reports diverge at line \
             %d:\n\
            \  symbolic:   %s\n\
            \  enumerated: %s\n"
            line s e;
          1
      | None when Fuzz.Differ.diag_sig t <> Fuzz.Differ.diag_sig te ->
          Printf.eprintf
            "enum-oracle: symbolic and enumerated diagnostics diverge\n";
          1
      | None ->
          Printf.eprintf "enum-oracle: reports identical\n";
          0
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Full pipeline report: LCG, model, solution, plan.")
    (profiled
       Term.(
         const f $ mode_term $ code_arg $ size_arg $ procs_arg $ strict_arg
         $ max_errors_arg $ enum_oracle_arg))

let lcg_cmd =
  kernel_cmd "lcg" ~doc:"Print the Locality-Communication Graph."
    (Term.const (fun _ (t : Core.Pipeline.t) ->
         Format.printf "%a@." Locality.Lcg.pp t.lcg;
         0))

let solve_cmd =
  kernel_cmd ~ladder:true "solve"
    ~doc:"Print the Table-2 constraint model and the solved distribution."
    (Term.const (fun _ (t : Core.Pipeline.t) ->
         Format.printf "%a@.@." Ilp.Model.pp t.model;
         Format.printf "%a@." (Ilp.Solve.pp t.model) t.solution;
         Format.printf "%a@." Ilp.Distribution.pp t.plan;
         0))

let simulate_cmd =
  let f baseline _ t =
    let r =
      if baseline then Core.Pipeline.simulate_baseline t
      else Core.Pipeline.simulate t
    in
    Format.printf "%a@." Dsmsim.Exec.pp r;
    0
  in
  kernel_cmd ~ladder:true "simulate"
    ~doc:"Replay the code on the DSM machine model."
    Term.(const f $ baseline_arg)

let sweep_cmd =
  let f () name size =
    with_entry name size @@ fun entry env ->
    Printf.printf "%4s %12s %12s\n" "H" "LCG eff" "BLOCK eff";
    (* one analysis per width; a fatal one ends the sweep *)
    let rec sweep code = function
      | [] -> code
      | h :: hs -> (
          match
            analysis entry.program env h (fun t ->
                let eff, base = Core.Pipeline.efficiency t in
                Printf.printf "%4d %11.1f%% %11.1f%%\n%!" h (100. *. eff)
                  (100. *. base);
                0)
          with
          | 1 -> 1
          | c -> sweep (max code c) hs)
    in
    sweep 0 [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Efficiency sweep over processor counts.")
    (profiled Term.(const f $ mode_term $ code_arg $ size_arg))

let table1_cmd =
  let f () =
    Format.printf "%a" Locality.Table1.pp_grid ();
    0
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the paper's Table 1 edge classification.")
    Term.(const f $ const ())

let stability_cmd =
  let f name =
    with_entry name None (fun entry _env ->
        let t = Locality.Stability.analyze entry.program in
        Format.printf "@[<v>%a@]@." Locality.Stability.pp t;
        Format.printf "all edges stable: %b@." (Locality.Stability.all_stable t);
        0)
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"LCG label stability across sampled sizes and machine widths.")
    Term.(const f $ code_arg)

let validate_cmd =
  let f (entry : Codes.Registry.entry) (t : Core.Pipeline.t) =
    let rounds = if entry.program.repeats then 2 else 1 in
    let r =
      Exec.Validate.run ~rounds
        ~on_error:(Core.Pipeline.record_comm_error t)
        t.lcg t.plan
    in
    Format.printf "%a@." Exec.Validate.pp r;
    match Exec.Validate.verdict r with
    | Pass -> 0
    | Stale -> 3
    | Checked_nothing ->
        prerr_endline "error: validate checked nothing (0 reads checked)";
        4
  in
  kernel_cmd ~ladder:true "validate"
    ~doc:"Replay with versioned memory: certify every read is fresh."
    (Term.const f)

let report_cmd =
  kernel_cmd ~ladder:true ~embeds:true "report"
    ~doc:"Full markdown analysis report."
    (Term.const (fun _ t ->
         print_string (Core.Report.markdown t);
         0))

let spmd_cmd =
  kernel_cmd ~bare:true "spmd" ~doc:"Emit the SPMD pseudo-code the plan implies."
    (Term.const (fun _ (t : Core.Pipeline.t) ->
         print_string (Codegen.Spmd.generate t.lcg t.plan t.machine);
         0))

let run_cmd =
  let domains_arg =
    let doc =
      Printf.sprintf
        "Number of OCaml domains to execute on (the machine width H, at most %d)."
        Core.Jobs.max_domains
    in
    Arg.(
      value
      & opt (at_most Core.Jobs.max_domains width) 4
      & info [ "domains"; "d" ] ~docv:"H" ~doc)
  in
  let rounds_arg =
    let doc =
      "Traversals of the phase sequence (default: 2 for repeating programs, \
       1 otherwise)."
    in
    Arg.(value & opt (some count) None & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let spin_arg =
    let doc =
      "Busy-loop iterations per abstract work cycle, scaling statement \
       compute into real time."
    in
    Arg.(value & opt natural 0 & info [ "spin" ] ~docv:"K" ~doc)
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
  let f rounds spin validate (entry : Codes.Registry.entry) (t : Core.Pipeline.t) =
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
    if r.reads_unchecked > 0 then
      Printf.eprintf
        "warning: the staleness check stopped at the replay's %d-read cap: \
         %d executed reads unchecked\n"
        Exec.Runner.read_budget r.reads_unchecked;
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
    (* A validation that compared nothing is not a pass: both checks
       empty exits 4, one of them empty warns. *)
    let no_reads = r.reads_checked = 0 and no_cells = r.content_cells = 0 in
    let vacuous = validate && no_reads && no_cells in
    if vacuous then
      prerr_endline
        "error: --validate checked nothing (0 reads checked, 0 content cells)"
    else if validate then begin
      if no_reads then
        prerr_endline
          "warning: --validate staleness check is vacuous (0 reads checked)";
      if no_cells then
        Printf.eprintf
          "warning: --validate content check is vacuous (0 content cells; \
           skipped %s)\n"
          (String.concat " " r.arrays_skipped)
    end;
    if failed then 3 else if vacuous then 4 else 0
  in
  kernel_cmd ~bare:true ~width:domains_arg "run"
    ~doc:
      "Execute the compiled program on OCaml domains over put-style shared \
       windows and check it against the schedule and a sequential replay."
    Term.(const f $ rounds_arg $ spin_arg $ validate_run_arg)

let dot_cmd =
  kernel_cmd ~bare:true "dot"
    ~doc:"Emit the LCG as Graphviz (pipe into `dot -Tsvg`)."
    (Term.const (fun _ (t : Core.Pipeline.t) ->
         print_string (Locality.Lcg.to_dot t.lcg);
         0))

let comm_cmd =
  kernel_cmd ~bare:true "comm"
    ~doc:"Print the generated single-sided communication schedule."
    (Term.const (fun _ (t : Core.Pipeline.t) ->
         let sched =
           Dsmsim.Comm.generate
             ~on_error:(Core.Pipeline.record_comm_error t)
             t.lcg t.plan
         in
         Format.printf "%a@." Dsmsim.Comm.pp sched;
         Format.printf
           "total: %d messages, %d words (%d redistribution events, %d \
            frontier events)@."
           (Dsmsim.Comm.message_count sched)
           (Dsmsim.Comm.total_words sched)
           (List.length (Dsmsim.Comm.redistributions sched))
           (List.length (Dsmsim.Comm.frontiers sched));
         0))

(* The parameter environment of a .dsm program: the --env bindings,
   or the midpoint of each declared parameter range. *)
let file_env (prog : Ir.Types.program) bindings =
  if bindings = "" then
    try Ok (Fuzz.Gen.midpoint_env prog)
    with Symbolic.Env.Unbound w ->
      let v, _ =
        List.find
          (function _, Symbolic.Assume.Pow2_of b -> b = w | _ -> false)
          (Symbolic.Assume.to_list prog.params)
      in
      Error
        (Printf.sprintf
           "parameter %s = 2^%s: %s is not bound (declare it first or pass \
            --env)"
           v w w)
  else
    List.fold_left
      (fun env kv ->
        Result.bind env (fun env ->
            match String.split_on_char '=' kv with
            | [ k; v ] when int_of_string_opt v <> None ->
                Ok (Symbolic.Env.add k (int_of_string v) env)
            | _ -> Error (Printf.sprintf "bad binding %S" kv)))
      (Ok Symbolic.Env.empty)
      (String.split_on_char ',' bindings)

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
  let f () path h bindings autopar strict max_errors =
    match Frontend.Parse.program_file path with
    | exception Frontend.Parse.Error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        1
    | prog -> (
        match file_env prog bindings with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok env -> (
            (* an --env is refused like a --size: the midpoint is the
               program's own choice *)
            match if bindings = "" then None else unsized_array env prog with
            | Some why -> out_of_range ~option:"--env" bindings path why
            | None ->
                analysis ~strict ?max_errors ~autopar ~embeds:true prog env h
                  (fun t ->
                    Format.printf "%a@.@." Core.Pipeline.report t;
                    let eff, base = Core.Pipeline.efficiency t in
                    Format.printf
                      "Simulated efficiency: %.1f%% (LCG) vs %.1f%% (BLOCK)@."
                      (100. *. eff) (100. *. base);
                    0)))
  in
  Cmd.v
    (Cmd.info "file"
       ~doc:"Parse a surface-language program and run the full pipeline on it.")
    (profiled
       Term.(
         const f $ mode_term $ path_arg $ procs_arg $ env_arg $ autopar_arg
         $ strict_arg $ max_errors_arg))

(* ------------------------------------------------------------------ *)
(* batch: many codes at once, each analysis a job on a domain of its
   own (Core.Jobs).  A job renders its report and diagnostics where it
   ran: they read that domain's probe stream and probe banks. *)

type batch_job = { bj_name : string; bj_size : int; bj_h : int }

type batch_result = {
  br_body : string;  (* rendered pipeline report *)
  br_diags : string;  (* rendered diagnostics table, [""] when clean *)
  br_degraded : bool;
}

let batch_worker (j : batch_job) =
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
  let procs_list_arg =
    let doc =
      "Comma-separated processor counts; each code is analyzed once per \
       count."
    in
    Arg.(value & opt (list width) [ 4 ] & info [ "procs"; "H" ] ~docv:"H,.." ~doc)
  in
  let f () names all jobs size hs =
    let names = names @ (if all then Codes.Registry.names else []) in
    let names = if names = [] then Codes.Registry.names else names in
    match List.find_opt (fun n -> not (List.mem n Codes.Registry.names)) names with
    | Some n -> unknown_code n
    | None -> (
        let refused name =
          let entry = Codes.Registry.find name in
          match sized_env entry (Option.value size ~default:entry.default_size) with
          | Ok _ -> None
          | Error code -> Some code
        in
        match List.find_map refused names with
        | Some code -> code
        | None ->
            let job_list =
              List.concat_map
                (fun name ->
                  let entry = Codes.Registry.find name in
                  let sz = Option.value size ~default:entry.default_size in
                  List.map (fun h -> { bj_name = name; bj_size = sz; bj_h = h }) hs)
                names
            in
            let jobs_a = Array.of_list job_list in
            let failed = ref false in
            let stream idx outcome =
              let j = jobs_a.(idx) in
              Printf.printf "=== %s (size %d, H=%d) ===\n" j.bj_name j.bj_size j.bj_h;
              match outcome with
              | Core.Jobs.Done { value = r; _ } ->
                  print_string r.br_body;
                  print_newline ();
                  prerr_string r.br_diags;
                  if r.br_degraded then failed := true
              | Core.Jobs.Failed reason ->
                  Printf.printf "FAILED: the job raised %s\n\n" reason;
                  failed := true
            in
            let _, merged = Core.Jobs.map ~workers:jobs ~f:batch_worker ~stream job_list in
            (* The jobs' snapshots join this domain's numbers, so the
               --profile/--profile-json report covers the whole batch. *)
            Symbolic.Metrics.absorb merged;
            if !failed then 2 else 0)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze many codes in parallel, each on a domain of its own: \
          deterministically ordered output, merged metrics.")
    (profiled
       Term.(
         const f $ mode_term $ codes_arg $ all_arg $ jobs_arg $ size_arg
         $ procs_list_arg))

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
  let load target =
    if Filename.check_suffix target ".dsm" || Sys.file_exists target then
      match Frontend.Parse.program_file target with
      | p -> Ok p
      | exception Frontend.Parse.Error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" target line message)
      | exception Sys_error msg -> Error msg
    else
      match Codes.Registry.find target with
      | e -> Ok e.program
      | exception Not_found ->
          Error
            (Printf.sprintf "unknown target %S; try a .dsm path or: %s" target
               (String.concat ", " Codes.Registry.names))
  in
  (* one tab-separated line per finding: machine-readable, stable
     columns target/severity/code/where/message; the first target that
     does not load ends the run *)
  let rec lint strict failed = function
    | [] -> if failed then 2 else 0
    | target :: rest -> (
        match load target with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok prog ->
            let flag failed (d : Core.Diag.t) =
              Printf.printf "%s\t%s\t%s\t%s\t%s\n" target
                (Core.Diag.severity_to_string d.severity)
                d.code
                (Core.Diag.where_to_string d)
                d.message;
              failed
              || d.severity = Core.Diag.Error
              || (strict && d.severity = Core.Diag.Warning)
            in
            lint strict (List.fold_left flag failed (Core.Lint.check prog)) rest)
  in
  let f targets all strict =
    match targets @ if all then Codes.Registry.names else [] with
    | [] ->
        Printf.eprintf
          "nothing to lint; give a benchmark name or a .dsm file, or --all\n";
        1
    | targets -> lint strict false targets
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
    Arg.(value & opt count 200 & info [ "count"; "n" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Campaign seed: program $(i,i) is deterministic in (seed, $(i,i))."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let wall_arg =
    let doc =
      "Wall-clock cap in seconds, checked between scheduling chunks; 0 \
       means uncapped."
    in
    Arg.(
      value
      & opt (at_least 0. Arg.float) 0.
      & info [ "wall-cap" ] ~docv:"SECONDS" ~doc)
  in
  let out_arg =
    let doc = "Directory where shrunk reproducers (and .golden snapshots) land." in
    Arg.(value & opt string "fuzz_findings" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let mutation_arg =
    let doc =
      "Self-test fault injection: skew every closed-form union \
       cardinality by +1 (Symbolic.Lattice.test_card_skew) in every \
       job.  The enum-parity differential must catch it, so a clean \
       exit under this flag is itself a campaign failure."
    in
    Arg.(value & flag & info [ "inject-mutation" ] ~doc)
  in
  let f count seed jobs wall out mutation =
    let cfg =
      {
        Fuzz.Campaign.count;
        seed;
        jobs;
        wall_cap = wall;
        out_dir = out;
        skew = (if mutation then 1 else 0);
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
      1
    end
    else if st.s_findings <> [] then 2
    else 0
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Mass differential fuzzing: generate seeded random phase \
          pipelines, run each through the differential battery \
          (symbolic-vs-enumerated parity, race certifier vs dynamic \
          oracle, the Eq. 7 solve's point against the model rows, \
          schedule parity, cold-vs-warm, 1-vs-N determinism), each \
          program on a domain of its own, and shrink every mismatch to a \
          minimal reproducer.")
    (profiled
       Term.(
         const f $ count_arg $ seed_arg $ jobs_arg $ wall_arg $ out_arg
         $ mutation_arg))

let () =
  let info =
    Cmd.info "dsmloc" ~version:"1.0.0"
      ~doc:
        "Access-descriptor-based locality analysis for DSM multiprocessors \
         (Navarro, Asenjo, Zapata, Padua; ICPP'99)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; analyze_cmd; batch_cmd; lcg_cmd; solve_cmd; simulate_cmd; sweep_cmd; comm_cmd; dot_cmd; spmd_cmd; run_cmd; report_cmd; table1_cmd; stability_cmd; validate_cmd; file_cmd; lint_cmd; fuzz_cmd ]))
