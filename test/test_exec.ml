(* The real executor (library [exec]) against the analysis stack: for
   registry kernels, running the compiled program on OCaml domains must
   deliver exactly the messages the Comm schedule predicts, serve no
   stale reads (every executed read equals its sequential-replay
   value), leave final-epoch array contents equal to the replay's in
   the owners' replicas, and split its accesses into local and remote
   exactly as the simulator does. *)

open Symbolic

let pipeline name ~h =
  let e = Codes.Registry.find name in
  Probe.with_seed 701 (fun () ->
      Symbolic.Probe.clear ();
      Core.Pipeline.run e.program ~env:(e.env_of_size e.default_size) ~h)

let check_run name (t : Core.Pipeline.t) (r : Exec.Runner.result) =
  Alcotest.(check (list string)) (name ^ " errors") [] r.errors;
  Alcotest.(check int)
    (name ^ " scheduled messages match the Comm schedule")
    r.expected_messages r.sched_messages;
  Alcotest.(check int)
    (name ^ " scheduled words match the Comm schedule")
    r.expected_words r.sched_words;
  Alcotest.(check int) (name ^ " stale reads") 0 r.stale;
  Alcotest.(check int) (name ^ " content mismatches") 0 r.content_mismatches;
  Alcotest.check Alcotest.bool (name ^ " ok") true (Exec.Runner.ok r);
  let sim =
    Dsmsim.Exec.run ~rounds:r.rounds ~on_error:ignore t.lcg t.plan t.machine
  in
  Alcotest.(check int)
    (name ^ " remote gets + puts = simulated remote")
    sim.total_remote
    (r.remote_gets + r.remote_puts);
  Alcotest.(check int)
    (name ^ " local accesses = simulated local")
    sim.total_local r.local_accesses

let test_kernel name h () =
  let t = pipeline name ~h in
  let r = Exec.Runner.execute t.Core.Pipeline.lcg t.Core.Pipeline.plan in
  check_run name t r;
  Alcotest.check Alcotest.bool
    (name ^ " checked some reads")
    true (r.reads_checked > 0)

let test_rounds () =
  (* the steady state: wrap-around redistribution events join from the
     second traversal on, and parity must still hold *)
  let t = pipeline "jacobi2d" ~h:4 in
  let r =
    Exec.Runner.execute ~rounds:3 t.Core.Pipeline.lcg t.Core.Pipeline.plan
  in
  check_run "jacobi2d rounds=3" t r;
  Alcotest.(check int) "rounds recorded" 3 r.rounds

let test_affine_shapes () =
  (* jacobi2d's subscripts and bounds live entirely in the affine
     fragment: nothing should fall back to expression interpretation *)
  let t = pipeline "jacobi2d" ~h:4 in
  let phs =
    Codegen.Compile.program t.Core.Pipeline.lcg.prog t.Core.Pipeline.lcg.env
      t.Core.Pipeline.plan
  in
  Alcotest.check Alcotest.bool "jacobi2d has phases" true (phs <> []);
  List.iter
    (fun (cp : Codegen.Compile.t) ->
      List.iter
        (function
          | Ir.Enumerate.Opaque ->
              Alcotest.failf "opaque expression in %s" cp.phase_name
          | Ir.Enumerate.Const _ | Ir.Enumerate.Affine _ -> ())
        cp.shapes)
    phs

let test_opaque_still_runs () =
  (* tfft2's butterfly subscripts carry 2^l factors of a loop variable:
     the compiler must fall back to interpretation, and the executed
     result must still agree with replay and schedule *)
  let t = pipeline "tfft2" ~h:2 in
  let phs =
    Codegen.Compile.program t.Core.Pipeline.lcg.prog t.Core.Pipeline.lcg.env
      t.Core.Pipeline.plan
  in
  let opaque =
    List.exists
      (fun (cp : Codegen.Compile.t) ->
        List.exists (( = ) Ir.Enumerate.Opaque) cp.shapes)
      phs
  in
  Alcotest.check Alcotest.bool "tfft2 exercises the opaque fallback" true
    opaque;
  let r = Exec.Runner.execute t.Core.Pipeline.lcg t.Core.Pipeline.plan in
  check_run "tfft2" t r

let test_spin_speedup_fields () =
  let t = pipeline "matmul" ~h:2 in
  let r =
    Exec.Runner.execute ~spin:20 t.Core.Pipeline.lcg t.Core.Pipeline.plan
  in
  check_run "matmul spin" t r;
  Alcotest.check Alcotest.bool "wall_par positive" true (r.wall_par > 0.0);
  Alcotest.check Alcotest.bool "wall_seq positive" true (r.wall_seq > 0.0);
  Alcotest.check Alcotest.bool "speedup positive" true (r.speedup > 0.0)

(* The hot loop stays unboxed: a sweep binds its sites once and then
   allocates nothing per access.  Processor 0's sweeps run on the
   calling domain, so the minor words [execute] allocates there (its
   setup, the sequential replay and processor 0's sweeps) are held to
   at most one per access of processor 0's share, [accesses / h] under
   jacobi2d's balanced schedule.  Allocation is deterministic, so this
   guard needs no timing.  (Per-access handlers allocated 12 words per
   access here.) *)
let test_sweep_allocation () =
  let e = Codes.Registry.find "jacobi2d" in
  let t =
    Probe.with_seed 701 (fun () ->
        Symbolic.Probe.clear ();
        Core.Pipeline.run e.program ~env:(e.env_of_size 8) ~h:2)
  in
  let w0 = Gc.minor_words () in
  let r =
    Exec.Runner.execute ~rounds:2 ~check_reads:false t.Core.Pipeline.lcg
      t.Core.Pipeline.plan
  in
  let words = Gc.minor_words () -. w0 in
  let share = (r.remote_gets + r.remote_puts + r.local_accesses) / r.h in
  Alcotest.(check bool) "jacobi2d@8 executed its sweeps" true (share > 500_000);
  if words /. float_of_int share > 1.0 then
    Alcotest.failf "%.2f minor words per access of processor 0 (at most 1)"
      (words /. float_of_int share)

let kernels =
  [
    "jacobi2d";
    "matmul";
    "adi";
    "redblack";
    "swim";
    "trisolve";
    "tfft2";
    "tomcatv";
    "mgrid";
  ]

let () =
  Alcotest.run "exec"
    [
      ( "kernels-h2",
        List.map
          (fun n -> Alcotest.test_case n `Quick (test_kernel n 2))
          kernels );
      ( "kernels-h4",
        List.map
          (fun n -> Alcotest.test_case n `Quick (test_kernel n 4))
          kernels );
      ( "protocol",
        [
          Alcotest.test_case "rounds" `Quick test_rounds;
          Alcotest.test_case "affine-shapes" `Quick test_affine_shapes;
          Alcotest.test_case "opaque-fallback" `Quick test_opaque_still_runs;
          Alcotest.test_case "spin-speedup" `Quick test_spin_speedup_fields;
          Alcotest.test_case "sweep allocation" `Quick test_sweep_allocation;
        ] );
    ]
