(* The full compiler, end to end, from text.

   Takes an UNMARKED surface-language program (no doall annotations),
   and runs every stage this repository implements:

     parse -> auto-parallelize (the Polaris stand-in) -> descriptors ->
     LCG -> Table-2 model -> distribution plan -> SPMD code generation
     -> communication schedule -> simulation -> dataflow validation.

     dune exec examples/full_compiler.exe
*)

let source =
  {|! unmarked 2-phase relaxation: the compiler finds the parallel loops
program relax
param N = 8..64
real U(N*N)
real V(N*N)

phase SWEEP:
  do c = 1, N-2
    do r = 1, N-2
      V(r + N*c) = U(r + N*(c-1)) + U(r + N*(c+1)) + U(r + N*c) work 4
    end
  end

phase COPY:
  do c = 1, N-2
    do r = 1, N-2
      U(r + N*c) = V(r + N*c)
    end
  end

repeat
|}

let () =
  Format.printf "=== 1. Parse ===@.";
  let prog = Frontend.Parse.program source in
  Format.printf "parsed %S: %d phases, %d arrays@.@." prog.prog_name
    (List.length prog.phases)
    (List.length prog.arrays);

  Format.printf "=== 2. Auto-parallelize ===@.";
  let prog = Ir.Autopar.mark prog in
  List.iter
    (fun ph ->
      let ctx = Ir.Phase.analyze prog ph in
      Format.printf "%s: parallel loop = %s@." ph.Ir.Types.phase_name
        (match ctx.par with
        | Some l -> l.var
        | None -> "(none)"))
    prog.phases;
  Format.printf "@.";

  let env = Symbolic.Env.of_list [ ("N", 32) ] in
  let h = 4 in

  Format.printf "=== 3-5. Descriptors, LCG, model, plan ===@.";
  let t = Core.Pipeline.run prog ~env ~h in
  Format.printf "%a@.@." Core.Pipeline.report t;

  Format.printf "=== 6. Generated SPMD code ===@.";
  print_string (Codegen.Spmd.generate t.lcg t.plan t.machine);

  Format.printf "@.=== 7. Communication schedule ===@.";
  let sched = Dsmsim.Comm.generate t.lcg t.plan in
  Format.printf "%a@." Dsmsim.Comm.pp sched;

  Format.printf "=== 8. Simulation ===@.";
  let run = Core.Pipeline.simulate t in
  let base = Core.Pipeline.simulate_baseline t in
  Format.printf "LCG plan %.1f%%, BLOCK baseline %.1f%%@.@."
    (100. *. run.efficiency)
    (100. *. base.efficiency);
  Array.iteri
    (fun p (s : Dsmsim.Exec.proc_stats) ->
      Format.printf "  PE %d: compute %.0f cycles, memory %.0f cycles@." p
        s.compute_time s.access_time)
    run.per_proc;

  Format.printf "@.=== 9. Dataflow validation ===@.";
  let v = Exec.Validate.run ~rounds:2 t.lcg t.plan in
  Format.printf "%a@." Exec.Validate.pp v;
  Format.printf "verdict: %s@."
    (if Exec.Validate.ok v then "all reads sequentially fresh"
     else "STALE READS - schedule incomplete")
