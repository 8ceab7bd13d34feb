(* Stencil distribution: ghost zones, frontier updates, and the chunk
   size trade-off on the Jacobi kernel.

   Shows how the analysis recognizes overlapping storage (Theorem 1c),
   how the ILP trades load balance against frontier traffic when
   choosing CYCLIC(p), and what the simulator measures as p varies.

     dune exec examples/stencil_distribution.exe [n_exp] [H]
*)

open Locality

let () =
  let n = 1 lsl (try int_of_string Sys.argv.(1) with _ -> 5) in
  let h = try int_of_string Sys.argv.(2) with _ -> 4 in
  let prog = (Codes.Registry.find "jacobi2d").program in
  let env = Symbolic.Env.of_list [ ("N", n) ] in

  Format.printf "=== Jacobi 2-D, N = %d, H = %d ===@.@." n h;

  let t = Core.Pipeline.run prog ~env ~h in

  (* The SWEEP node: U is read with overlapping storage. *)
  let gu =
    List.find (fun (g : Lcg.graph) -> g.array = "U") t.lcg.graphs
  in
  let sweep = List.hd gu.nodes in
  Format.printf "U in SWEEP: attr %s, %a, intra: %s@."
    (Ir.Liveness.attr_to_string sweep.attr)
    Descriptor.Symmetry.pp sweep.sym
    (Intra.case_to_string sweep.intra.case);
  Format.printf "ghost-zone (halo) width measured: %d addresses@.@."
    sweep.halo;

  Format.printf "%a@.@." Core.Pipeline.report t;

  (* Sweep the chunk size manually and watch the frontier trade-off. *)
  Format.printf "--- CYCLIC(p) sweep (solver chose p = %d) ---@."
    t.plan.chunk.(0);
  Format.printf "%6s %10s %10s %12s@." "p" "remote" "T_par" "efficiency";
  let bound = (n - 2 + h - 1) / h in
  List.iter
    (fun p ->
      if p >= 1 && p <= bound then begin
        let chunk = Array.map (fun _ -> p) t.plan.chunk in
        let lcg = t.lcg in
        let plan' =
          Ilp.Distribution.of_solution lcg ~p:chunk
        in
        let r = Dsmsim.Exec.run lcg plan' t.machine in
        Format.printf "%6d %10d %10.0f %11.1f%%@." p r.total_remote r.par_time
          (100. *. r.efficiency)
      end)
    [ 1; 2; 4; 8; 16; 32; bound ]
