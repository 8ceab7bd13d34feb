(* Quickstart: analyze a small two-phase program end to end.

   Build a loop-nest program with the IR DSL, run the locality pipeline
   (descriptors -> LCG -> constraint model -> distribution), and replay
   it on the DSM machine model.

     dune exec examples/quickstart.exe
*)

open Symbolic
open Ir.Build

(* A producer/consumer pair over one array: F1 writes T by blocks of 4,
   F2 reads it back element-wise - the balanced locality condition
   couples their chunk sizes as 4 * p1 = p2. *)
let program =
  let n = var "N" in
  program ~name:"quickstart"
    ~params:(Assume.of_list [ ("N", Assume.Int_range (16, 64)) ])
    ~arrays:[ array "T" [ int 4 * n ] ]
    [
      phase "PRODUCE"
        (doall "i" ~lo:(int 0) ~hi:(n - int 1)
           [
             do_ "j" ~lo:(int 0) ~hi:(int 3)
               [ assign ~work:4 [ write "T" [ (int 4 * var "i") + var "j" ] ] ];
           ]);
      phase "CONSUME"
        (doall "k" ~lo:(int 0) ~hi:((int 4 * n) - int 1)
           [ assign ~work:1 [ read "T" [ var "k" ] ] ]);
    ]

let () =
  let env = Env.of_list [ ("N", 32) ] in
  let h = 4 in
  Format.printf "=== Quickstart: locality analysis on %d processors ===@.@."
    h;

  (* 1. The whole pipeline in one call. *)
  let t = Core.Pipeline.run program ~env ~h in
  Format.printf "%a@.@." Core.Pipeline.report t;

  (* 2. Look inside: the phase descriptor of T in PRODUCE. *)
  let ctx = Ir.Phase.analyze program (List.hd program.phases) in
  let pd =
    Descriptor.Unionize.simplify (Descriptor.Pd.of_phase (Descriptor.Ard.of_phase ctx) ~array:"T")
  in
  Format.printf "=== PD of T in PRODUCE (coalesced + unioned) ===@.%a@.@."
    Descriptor.Pd.pp pd;

  (* 3. Simulate under the derived plan and under the naive baseline. *)
  let run = Core.Pipeline.simulate t in
  let base = Core.Pipeline.simulate_baseline t in
  Format.printf "=== Simulation ===@.LCG plan:   %a@.BLOCK plan: %a@."
    Dsmsim.Exec.pp run Dsmsim.Exec.pp base;
  Format.printf "Efficiency: %.1f%% (LCG) vs %.1f%% (BLOCK)@."
    (100. *. run.efficiency)
    (100. *. base.efficiency)
