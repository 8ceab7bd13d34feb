(* Tests for the ILP layer: the Table 2 model generated from the TFFT2
   LCG, the Eq. 7 solver, and distribution plans. *)

open Symbolic
open Ilp

let tfft2 = (Codes.Registry.find "tfft2").program

(* ------------------------------------------------------------------ *)
(* The Table 2 model from the TFFT2 LCG *)

let tfft2_model ~p ~q:qv ~h =
  let env = Codes.Registry.bind tfft2 [ ("p", p); ("q", qv) ] in
  let lcg = Locality.Lcg.build tfft2 ~env ~h in
  Model.of_lcg lcg

let test_model_table2 () =
  Probe.with_seed 40 (fun () ->
      let m = tfft2_model ~p:4 ~q:4 ~h:4 in
      (* Locality constraints: 5 for X (p3..p8 chain), 3 for Y. *)
      let for_array a =
        List.filter (fun (l : Model.locality) -> String.equal l.array a) m.locality
      in
      Alcotest.(check int) "X locality rows" 5 (List.length (for_array "X"));
      Alcotest.(check int) "Y locality rows" 3 (List.length (for_array "Y"));
      (* X chain relations, in order: p3=p4, P p4 = Q p5 (as 2P/2Q),
         p5=p6, p6=p7, 2Q p7 = p8. *)
      let x = for_array "X" in
      let rel k = List.nth x k in
      Alcotest.(check (pair int int)) "p3 = p4"
        ((rel 0).ai, (rel 0).bi)
        (32, 32);
      Alcotest.(check (pair int int)) "P p4 = Q p5" (32, 32) ((rel 1).ai, (rel 1).bi);
      Alcotest.(check (pair int int)) "2Q p7 = p8" (32, 1) ((rel 4).ai, (rel 4).bi);
      List.iter
        (fun (l : Model.locality) ->
          Alcotest.(check int) "homogeneous" 0 l.ci)
        x;
      (* Load-balance bounds: ceil(n/H). *)
      List.iter
        (fun (b : Model.bound) ->
          Alcotest.(check bool) "bound positive" true (b.hi >= 1))
        m.bounds;
      (* Storage: X F8 carries Delta_d = PQ and two Delta_r/2 rows. *)
      let sx =
        List.filter (fun (s : Model.storage) -> String.equal s.array "X") m.storage
      in
      Alcotest.(check int) "X storage rows" 3 (List.length sx);
      let limits = List.sort compare (List.map (fun (s : Model.storage) -> s.limit) sx) in
      Alcotest.(check (list int)) "limits PQ/2, PQ, PQ" [ 128; 256; 256 ] limits)

(* Every row holds at the solve's point, and F8's storage rows keep the
   X chain at p3 = 1: doubling the chain (p3 = 2, p8 = 64) keeps every
   locality row but exceeds the cap 128/4 = 32.  (F8's load-balance
   bound, 128/4 = 32, rules that point out too.) *)
let test_model_rows_at_solve () =
  Probe.with_seed 41 (fun () ->
      let m = tfft2_model ~p:4 ~q:4 ~h:4 in
      let r = Solve.solve m (Cost.default_machine ~h:4) in
      let locality p =
        List.for_all
          (fun (l : Model.locality) -> l.ai * p.(l.k) = (l.bi * p.(l.g)) + l.ci)
          m.locality
      and bounds p =
        List.for_all
          (fun (b : Model.bound) -> 1 <= p.(b.k) && p.(b.k) <= b.hi)
          m.bounds
      and storage p =
        List.for_all
          (fun (s : Model.storage) -> s.coeff * p.(s.k) <= s.limit)
          m.storage
      in
      Alcotest.(check int) "no broken rows" 0 (List.length r.broken);
      Alcotest.(check bool) "locality rows hold" true (locality r.p);
      Alcotest.(check bool) "bound rows hold" true (bounds r.p);
      Alcotest.(check bool) "storage rows hold" true (storage r.p);
      Alcotest.(check (pair int int)) "p3, p8" (1, 32) (r.p.(2), r.p.(7));
      let doubled = Array.mapi (fun k v -> if k >= 2 then 2 * v else v) r.p in
      Alcotest.(check int) "doubled p8" 64 doubled.(7);
      Alcotest.(check bool) "doubled chain keeps the locality rows" true
        (locality doubled);
      Alcotest.(check bool) "F8 storage rules out p3 = 2" false (storage doubled))

(* ------------------------------------------------------------------ *)
(* Enumeration solver + distribution *)

let test_solve_tfft2 () =
  Probe.with_seed 42 (fun () ->
      let env = (Codes.Registry.find "tfft2").env_of_size 4 in
      let lcg = Locality.Lcg.build tfft2 ~env ~h:4 in
      let model = Model.of_lcg lcg in
      let r = Solve.solve model (Cost.default_machine ~h:4) in
      Alcotest.(check int) "no broken rows" 0 (List.length r.broken);
      (* chain: p3..p7 = t, p8 = 32 t; storage caps p8 at 32 => t = 1 *)
      Alcotest.(check int) "p3" 1 r.p.(2);
      Alcotest.(check int) "p8" 32 r.p.(7);
      (* affinity/locality: p1 = Q p2 *)
      Alcotest.(check int) "p1 = Q p2" (16 * r.p.(1)) r.p.(0))

(* The exhaustive scan Solve.argmin replaces, kept as its oracle: every
   t in 1..t_max whose chunks are integral and within their caps,
   costed in phase order, the first of least cost kept. *)
let scan m (c : Solve.component) =
  let best = ref None in
  for t = 1 to c.t_max do
    let vals =
      List.map
        (fun (mem : Solve.member) -> (mem, Solve.eval_affine mem.expr t))
        c.members
    in
    let feasible ((mem : Solve.member), v) =
      match v with
      | Some p ->
          p >= 1 && p <= mem.bound
          && List.for_all (fun (coeff, limit) -> coeff * p <= limit) mem.storage
      | None -> false
    in
    if List.for_all feasible vals then begin
      let cost =
        List.fold_left
          (fun acc (mem, v) -> acc +. Solve.member_cost m mem (Option.get v))
          0.0 vals
      in
      match !best with
      | Some (bc, _) when bc <= cost -> ()
      | _ -> best := Some (cost, t)
    end
  done;
  Option.map snd !best

let same_result (a : Solve.result) (b : Solve.result) =
  let bits = Int64.bits_of_float in
  a.p = b.p
  && bits a.d_cost = bits b.d_cost
  && bits a.c_cost = bits b.c_cost
  && bits a.objective = bits b.objective
  && a.broken = b.broken
  && a.budget_exhausted = b.budget_exhausted

let check_against_scan what model h =
  let m = Cost.default_machine ~h in
  let got = Solve.solve model m and want = Solve.solve_with ~argmin:scan model m in
  if not (same_result got want) then
    Alcotest.failf "%s: piecewise objective %h (p %s), scan %h (p %s)" what
      got.objective
      (String.concat "," (Array.to_list (Array.map string_of_int got.p)))
      want.objective
      (String.concat "," (Array.to_list (Array.map string_of_int want.p)))

(* Every registry kernel at H in {2,4,16,64,1024}: default size, 10, 16
   and 20, except where the LCG construction leaves the closed form and
   enumerates for seconds: tfft2 and matmul past size 6, trisolve past
   13. *)
let test_solve_registry_vs_scan () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let sizes =
        match e.name with
        | "tfft2" | "matmul" -> [ e.default_size; 6 ]
        | "trisolve" -> [ e.default_size; 10; 13 ]
        | _ -> [ e.default_size; 10; 16; 20 ]
      in
      List.iter
        (fun size ->
          List.iter
            (fun h ->
              let lcg = Locality.Lcg.build e.program ~env:(e.env_of_size size) ~h in
              check_against_scan
                (Printf.sprintf "%s@%d H=%d" e.name size h)
                (Model.of_lcg lcg) h)
            [ 2; 4; 16; 64; 1024 ])
        sizes)
    Codes.Registry.all

(* Generated programs: the twelve deep programs of campaign 2026 at
   H=16 and default programs #0-199 at H=4, at their midpoint
   environments. *)
let test_solve_fuzz_vs_scan () =
  let cases =
    List.init 12 (fun i -> ("deep", Fuzz.Gen.deep, i, 16))
    @ List.init 200 (fun i -> ("default", Fuzz.Gen.default, i, 4))
  in
  List.iter
    (fun (name, profile, index, h) ->
      let prog = Fuzz.Gen.program profile ~seed:2026 ~index in
      let lcg = Locality.Lcg.build prog ~env:(Fuzz.Gen.midpoint_env prog) ~h in
      check_against_scan
        (Printf.sprintf "%s#%d H=%d" name index h)
        (Model.of_lcg lcg) h)
    cases

(* Random components: negative slopes, residues with den > 1, storage
   caps of either sign, phases without load or frontier (all-zero
   costs, so every t ties), pure-frontier and pure-load members. *)
let component_gen =
  let open QCheck.Gen in
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
  let affine =
    let* num = int_range (-3) 3 and* off = int_range (-30) 30 and* den = int_range 1 4 in
    return (num, off, den)
  in
  let member phase =
    let* num, off, den = if phase = 0 then return (1, 0, 1) else affine
    and* bound = int_range 0 400
    and* storage =
      list_size (int_range 0 2)
        (pair (int_range (-3) 6) (int_range (-20) 600))
    and* lead =
      opt ~ratio:0.8 (pair (int_range 0 3000) (int_range 0 9000))
    and* frontier =
      list_size (int_range 0 2) (pair (int_range 1 3000) (int_range 1 4))
    in
    let g = gcd (gcd num off) den in
    return
      {
        Solve.phase;
        expr = { num = num / g; off = off / g; den = den / g };
        bound;
        storage;
        lead;
        frontier = (if lead = None then [] else frontier);
      }
  in
  let* n = int_range 1 4 and* t_max = int_range 0 500 and* h = oneofl [ 1; 2; 3; 4; 8; 16 ] in
  let* members = flatten_l (List.init n member) in
  return (h, { Solve.members; t_max })

let prop_argmin_matches_scan =
  QCheck.Test.make ~name:"Solve.argmin = scan on random components" ~count:2000
    (QCheck.make component_gen)
    (fun (h, c) ->
      let m = Cost.default_machine ~h in
      Solve.argmin m c = scan m c)

let test_max_chunk_load () =
  Alcotest.(check int) "even" 25 (Cost.max_chunk_load ~n:100 ~p:25 ~h:4);
  Alcotest.(check int) "cyclic 1" 25 (Cost.max_chunk_load ~n:100 ~p:1 ~h:4);
  (* n=100 p=16 h=4: one full round of 64 (16 per proc) + remainder 36,
     of which proc 0 takes a full chunk of 16: 16 + 16 = 32. *)
  Alcotest.(check int) "remainder" 32 (Cost.max_chunk_load ~n:100 ~p:16 ~h:4);
  Alcotest.(check int) "partial tail" 25
    (Cost.max_chunk_load ~n:99 ~p:25 ~h:4)

let test_distribution_plan () =
  Probe.with_seed 43 (fun () ->
      let env = (Codes.Registry.find "tfft2").env_of_size 4 in
      let lcg = Locality.Lcg.build tfft2 ~env ~h:4 in
      let model = Model.of_lcg lcg in
      let r = Solve.solve model (Cost.default_machine ~h:4) in
      let plan = Distribution.of_solution lcg ~p:r.p in
      (* X: three epochs (F1 | F2 | F3..F8). *)
      let x_layouts =
        List.filter (fun (l : Distribution.layout) -> l.array = "X") plan.layouts
      in
      Alcotest.(check int) "three X epochs" 3 (List.length x_layouts);
      (* the F3..F8 epoch spans phases 2..7 with block 2P*p3 = 32 *)
      let main =
        List.find (fun (l : Distribution.layout) -> l.first_phase = 2) x_layouts
      in
      Alcotest.(check int) "block" 32 main.block;
      Alcotest.(check int) "last phase" 7 main.last_phase;
      (* proc_of is a total function over the array *)
      for a = 0 to 511 do
        let p = Distribution.proc_of plan main ~addr:a in
        Alcotest.(check bool) "proc in range" true (p >= 0 && p < 4)
      done)

let test_block_plan () =
  Probe.with_seed 44 (fun () ->
      let env = Env.of_list [ ("N", 16) ] in
      let lcg = Locality.Lcg.build (Codes.Registry.find "jacobi2d").program ~env ~h:4 in
      let plan = Distribution.block_plan lcg in
      Alcotest.(check int) "one layout per array" 2 (List.length plan.layouts);
      List.iter
        (fun (l : Distribution.layout) ->
          Alcotest.(check int) "block = size/h" 64 l.block;
          Alcotest.(check int) "halo 0" 0 l.halo)
        plan.layouts)

(* The reverse distribution: a phase sweeping symmetric pairs gets a
   mirrored layout that serves both ends locally. *)
let test_mirror_distribution () =
  Probe.with_seed 45 (fun () ->
      let v = Expr.var and i = Expr.int in
      let prog =
        Ir.Build.program ~name:"sym"
          ~params:(Symbolic.Assume.of_list [ ("N", Symbolic.Assume.Int_range (16, 64)) ])
          ~arrays:[ Ir.Build.array "A" [ Expr.mul (i 2) (v "N") ] ]
          [
            Ir.Build.phase "P1"
              (Ir.Build.doall "m" ~lo:(i 0) ~hi:(Expr.sub (v "N") Expr.one)
                 [
                   Ir.Build.assign
                     [
                       Ir.Build.write "A" [ v "m" ];
                       Ir.Build.write "A"
                         [ Expr.sub (Expr.mul (i 2) (v "N")) (Expr.add (v "m") Expr.one) ];
                     ];
                 ]);
          ]
      in
      let env = Symbolic.Env.of_list [ ("N", 32) ] in
      let t = Core.Pipeline.run prog ~env ~h:4 in
      let layout =
        List.find
          (fun (l : Distribution.layout) -> l.array = "A")
          t.plan.layouts
      in
      Alcotest.(check bool) "mirror layout chosen" true (layout.mirror <> None);
      let r = Core.Pipeline.simulate t in
      Alcotest.(check int) "fully local under the fold" 0 r.total_remote)

(* Stencil layout alignment: the chain anchor lands on the core
   (written) column, not the lowest ghost read, and the halo is fitted
   to the actual stray. *)
let test_stencil_base_alignment () =
  Probe.with_seed 46 (fun () ->
      let e = Codes.Registry.find "jacobi2d" in
      let n = 64 in
      let t =
        Core.Pipeline.run e.program ~env:(Env.of_list [ ("N", n) ]) ~h:4
      in
      let u =
        List.find
          (fun (l : Distribution.layout) -> l.array = "U")
          t.plan.layouts
      in
      (* tau_min of U's reads is 1 (ghost column); the core column
         starts one parallel stride higher *)
      Alcotest.(check int) "base = tau + delta" (1 + n) u.base;
      Alcotest.(check bool) "halo fitted to ~N" true
        (u.halo > 0 && u.halo <= n);
      let r = Core.Pipeline.simulate t in
      Alcotest.(check int) "all local" 0 r.total_remote)

(* One storage-distance rule ({!Locality.Balance.reach}) feeds both the
   model's storage rows and the plan's period candidates: a shifted pair
   A(j), A(j + d) (stride 1, span 0: reach 2) yields a row and a period
   only when d lies beyond the reach. *)
let test_storage_reach () =
  Probe.with_seed 47 (fun () ->
      let v = Expr.var and i = Expr.int in
      let run d =
        let prog =
          Ir.Build.program ~name:"shift" ~params:Assume.empty
            ~arrays:[ Ir.Build.array "A" [ i (3 + d) ] ]
            [
              Ir.Build.phase "S"
                (Ir.Build.doall "j" ~lo:(i 0) ~hi:(i 2)
                   [
                     Ir.Build.assign
                       [
                         Ir.Build.read "A" [ v "j" ];
                         Ir.Build.read "A" [ Expr.add (v "j") (i d) ];
                       ];
                   ]);
            ]
        in
        let t = Core.Pipeline.run prog ~env:Env.empty ~h:2 in
        let layout =
          List.find (fun (l : Distribution.layout) -> l.array = "A") t.plan.layouts
        in
        ( ( List.map
              (fun (s : Model.storage) -> (s.coeff, s.limit))
              t.model.storage,
            layout.period ),
          (Core.Pipeline.simulate t).total_remote )
      in
      let rows_and_period = Alcotest.(pair (list (pair int int)) (option int)) in
      Alcotest.check rows_and_period "d = 2: no storage row, no period"
        ([], None) (fst (run 2));
      let got, remote = run 3 in
      Alcotest.check rows_and_period "d = 3: row 2 p <= 3 and period 3"
        ([ (2, 3) ], Some 3) got;
      Alcotest.(check int) "d = 3: all local" 0 remote)

let () =
  Alcotest.run "ilp"
    [
      ( "model",
        [
          Alcotest.test_case "table 2" `Quick test_model_table2;
          Alcotest.test_case "rows at the solve's point" `Quick
            test_model_rows_at_solve;
        ] );
      ( "solve",
        [
          Alcotest.test_case "tfft2" `Quick test_solve_tfft2;
          Alcotest.test_case "max chunk load" `Quick test_max_chunk_load;
          Alcotest.test_case "registry = scan" `Slow test_solve_registry_vs_scan;
          Alcotest.test_case "fuzz programs = scan" `Slow test_solve_fuzz_vs_scan;
          QCheck_alcotest.to_alcotest prop_argmin_matches_scan;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "tfft2 plan" `Quick test_distribution_plan;
          Alcotest.test_case "block baseline" `Quick test_block_plan;
          Alcotest.test_case "reverse distribution" `Quick
            test_mirror_distribution;
          Alcotest.test_case "stencil base alignment" `Quick
            test_stencil_base_alignment;
          Alcotest.test_case "storage distance reach" `Quick test_storage_reach;
        ] );
    ]
