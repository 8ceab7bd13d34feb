(* The paper's running example, end to end: the 8-phase TFFT2 section.

   Reproduces, in one run: the ARDs of Fig. 2, the PD simplification of
   Fig. 3, the IDs and upper limits of Figs. 4/8, the LCG of Fig. 6,
   the constraint system of Table 2 and its solution, and the simulated
   parallel efficiency against the BLOCK baseline.

     dune exec examples/tfft2_pipeline.exe [p] [q] [H]
*)

open Symbolic
open Descriptor

let () =
  let p = try int_of_string Sys.argv.(1) with _ -> 4 in
  let q = try int_of_string Sys.argv.(2) with _ -> 4 in
  let h = try int_of_string Sys.argv.(3) with _ -> 4 in
  let tfft2 = (Codes.Registry.find "tfft2").program in
  let env = Codes.Registry.bind tfft2 [ ("p", p); ("q", q) ] in

  Format.printf "=== TFFT2 (P = 2^%d = %d, Q = 2^%d = %d, H = %d) ===@.@."
    p (1 lsl p) q (1 lsl q) h;

  (* Fig. 1 / Fig. 2: phase F3 and its ARDs. *)
  let fig1 = Codes.Registry.fig1 in
  let ctx = Ir.Phase.analyze fig1 (List.hd fig1.phases) in
  Format.printf "--- Fig. 2: ARDs of X in F3 (normalized loops) ---@.";
  List.iter
    (fun site -> Format.printf "  %a@." Ard.pp (Ard.of_site ctx site))
    (Ir.Phase.sites_of_array ctx "X");

  (* Fig. 3: the simplification chain. *)
  let raw = Pd.of_phase (Ard.of_phase ctx) ~array:"X" in
  Format.printf "@.--- Fig. 3(a): raw PD ---@.%a@." Pd.pp raw;
  let coalesced = Coalesce.pd raw in
  Format.printf "--- Fig. 3(c): after stride coalescing ---@.%a@." Pd.pp
    coalesced;
  let final = Unionize.simplify raw in
  Format.printf "--- Fig. 3(d): after access descriptor union ---@.%a@." Pd.pp
    final;

  (* Fig. 4 / Fig. 8: IDs, upper limits, memory gap at P=4, Q=3. *)
  let small = Env.of_list [ ("p", 2); ("P", 4); ("q", 0); ("Q", 3) ] in
  let id = Id.of_pd final in
  let side = Locality.Balance.side ~overlap:(Symmetry.has_overlap id) id in
  Format.printf "@.--- Fig. 4/8: IDs at P=4, Q=3 ---@.";
  for it = 0 to 2 do
    let region = Region.sorted (Region.addresses small final ~par:(Some it)) in
    let ul =
      match side with
      | Some s -> Env.eval small (Id.upper_at s.primary ~i:(Expr.int it))
      | None -> -1
    in
    Format.printf "  I(X,%d) = {%s}   UL = %d@." it
      (String.concat ", " (List.map string_of_int region))
      ul
  done;
  (match side with
  | Some s ->
      Format.printf "  memory gap h = %a = %d@." Expr.pp s.gap
        (Env.eval small s.gap)
  | None -> Format.printf "  memory gap: n/a@.");

  (* The full pipeline: Fig. 6 LCG, Table 2, solution, plan. *)
  let t = Core.Pipeline.run tfft2 ~env ~h in
  Format.printf "@.--- Fig. 6 LCG + Table 2 + solution ---@.%a@.@."
    Core.Pipeline.report t;

  (* Simulated efficiency. *)
  let eff, base = Core.Pipeline.efficiency t in
  Format.printf "--- Simulated efficiency ---@.";
  Format.printf "LCG-derived distribution: %5.1f%%@." (100. *. eff);
  Format.printf "naive BLOCK baseline:     %5.1f%%@." (100. *. base)
