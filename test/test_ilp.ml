(* Tests for the ILP layer: the exact simplex, branch & bound, the
   Table 2 model generated from the TFFT2 LCG, the enumeration solver,
   and distribution plans. *)

open Symbolic
open Ilp

let tfft2 = (Codes.Registry.find "tfft2").program

let q = Qnum.of_int
let qq a b = Qnum.make a b

(* ------------------------------------------------------------------ *)
(* Simplex *)

let test_lp_basic () =
  (* max x + y  s.t. x + 2y <= 4; 3x + y <= 6  -> (8/5, 6/5), value 14/5 *)
  let p =
    {
      Lp.n_vars = 2;
      objective = [| q 1; q 1 |];
      constraints =
        [
          Lp.constr [| q 1; q 2 |] Lp.Le (q 4);
          Lp.constr [| q 3; q 1 |] Lp.Le (q 6);
        ];
    }
  in
  match Lp.solve p with
  | Lp.Optimal { value; point } ->
      Alcotest.(check bool) "value 14/5" true (Qnum.equal value (qq 14 5));
      Alcotest.(check bool) "x = 8/5" true (Qnum.equal point.(0) (qq 8 5));
      Alcotest.(check bool) "y = 6/5" true (Qnum.equal point.(1) (qq 6 5))
  | _ -> Alcotest.fail "expected optimal"

let test_lp_equality_and_ge () =
  (* max x  s.t. x + y = 10; x >= 2; y >= 3  ->  x = 7 *)
  let p =
    {
      Lp.n_vars = 2;
      objective = [| q 1; q 0 |];
      constraints =
        [
          Lp.constr [| q 1; q 1 |] Lp.Eq (q 10);
          Lp.constr [| q 1; q 0 |] Lp.Ge (q 2);
          Lp.constr [| q 0; q 1 |] Lp.Ge (q 3);
        ];
    }
  in
  match Lp.solve p with
  | Lp.Optimal { value; _ } ->
      Alcotest.(check bool) "x = 7" true (Qnum.equal value (q 7))
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let p =
    {
      Lp.n_vars = 1;
      objective = [| q 1 |];
      constraints =
        [ Lp.constr [| q 1 |] Lp.Ge (q 5); Lp.constr [| q 1 |] Lp.Le (q 3) ];
    }
  in
  Alcotest.(check bool) "infeasible" true (Lp.solve p = Lp.Infeasible)

let test_lp_unbounded () =
  let p = { Lp.n_vars = 1; objective = [| q 1 |]; constraints = [] } in
  Alcotest.(check bool) "unbounded" true (Lp.solve p = Lp.Unbounded)

(* Brute-force check on random small LPs: simplex optimum dominates
   every lattice point. *)
let prop_lp_dominates_lattice =
  QCheck.Test.make ~name:"simplex dominates feasible lattice points" ~count:100
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 3)
           (triple (int_range (-4) 4) (int_range (-4) 4) (int_range 1 12)))
        (int_range (-3) 3) (int_range (-3) 3))
    (fun (rows, c1, c2) ->
      let p =
        {
          Lp.n_vars = 2;
          objective = [| q c1; q c2 |];
          constraints =
            List.map (fun (a, b, r) -> Lp.constr [| q a; q b |] Lp.Le (q r)) rows
            (* keep it bounded *)
            @ [
                Lp.constr [| q 1; q 0 |] Lp.Le (q 20);
                Lp.constr [| q 0; q 1 |] Lp.Le (q 20);
              ];
        }
      in
      match Lp.solve p with
      | Lp.Unbounded -> false
      | Lp.Infeasible ->
          (* no lattice point may be feasible either *)
          let feasible = ref false in
          for x = 0 to 20 do
            for y = 0 to 20 do
              if
                List.for_all
                  (fun (a, b, r) -> (a * x) + (b * y) <= r)
                  rows
              then feasible := true
            done
          done;
          not !feasible
      | Lp.Optimal { value; _ } ->
          let ok = ref true in
          for x = 0 to 20 do
            for y = 0 to 20 do
              if List.for_all (fun (a, b, r) -> (a * x) + (b * y) <= r) rows
              then
                if Qnum.compare (q ((c1 * x) + (c2 * y))) value > 0 then
                  ok := false
            done
          done;
          !ok)

(* ------------------------------------------------------------------ *)
(* Branch & bound *)

let test_ilp_knapsack () =
  (* max 5x + 4y s.t. 6x + 4y <= 24; x + 2y <= 6 -> LP opt fractional,
     integer opt x=4 y=0 value 20 *)
  let p =
    {
      Lp.n_vars = 2;
      objective = [| q 5; q 4 |];
      constraints =
        [
          Lp.constr [| q 6; q 4 |] Lp.Le (q 24);
          Lp.constr [| q 1; q 2 |] Lp.Le (q 6);
        ];
    }
  in
  match Ilp_solver.solve p with
  | Ilp_solver.Optimal { value; point } ->
      Alcotest.(check bool) "value 20" true (Qnum.equal value (q 20));
      Alcotest.(check (array int)) "point" [| 4; 0 |] point
  | _ -> Alcotest.fail "expected optimal"

(* Regression: the branch & bound used to [failwith "node budget
   exceeded"] when the search tree outgrew [max_nodes].  It now prunes
   instead, returning the best incumbent found (or [Infeasible] when
   none was) together with an exhaustion flag. *)
let test_ilp_budget () =
  let p =
    {
      Lp.n_vars = 2;
      objective = [| q 5; q 4 |];
      constraints =
        [
          Lp.constr [| q 6; q 4 |] Lp.Le (q 24);
          Lp.constr [| q 1; q 2 |] Lp.Le (q 6);
        ];
    }
  in
  (* a one-node budget cannot finish the knapsack search: no exception,
     a total outcome, and the flag raised *)
  (match Ilp_solver.solve_budgeted ~max_nodes:1 p with
  | outcome, exhausted ->
      Alcotest.(check bool) "budget reported exhausted" true exhausted;
      (match outcome with
      | Ilp_solver.Optimal { value; _ } ->
          (* whatever incumbent survived is feasible, so <= true optimum *)
          Alcotest.(check bool) "incumbent bounded by optimum" true
            (Qnum.compare value (q 20) <= 0)
      | Ilp_solver.Infeasible -> ()
      | Ilp_solver.Unbounded -> Alcotest.fail "unbounded under a finite box"));
  (* an ample budget reproduces the exact optimum with the flag down *)
  match Ilp_solver.solve_budgeted p with
  | Ilp_solver.Optimal { value; point }, exhausted ->
      Alcotest.(check bool) "no exhaustion" false exhausted;
      Alcotest.(check bool) "value 20" true (Qnum.equal value (q 20));
      Alcotest.(check (array int)) "point" [| 4; 0 |] point
  | _ -> Alcotest.fail "expected optimal"

let prop_ilp_matches_bruteforce =
  QCheck.Test.make ~name:"B&B = brute force on small ILPs" ~count:80
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 3)
           (triple (int_range 0 5) (int_range 0 5) (int_range 1 25)))
        (pair (int_range 0 4) (int_range 0 4)))
    (fun (rows, (c1, c2)) ->
      let rows = (1, 1, 15) :: rows (* bounded *) in
      let p =
        {
          Lp.n_vars = 2;
          objective = [| q c1; q c2 |];
          constraints =
            List.map (fun (a, b, r) -> Lp.constr [| q a; q b |] Lp.Le (q r)) rows;
        }
      in
      let brute = ref min_int in
      for x = 0 to 15 do
        for y = 0 to 15 do
          if List.for_all (fun (a, b, r) -> (a * x) + (b * y) <= r) rows then
            brute := max !brute ((c1 * x) + (c2 * y))
        done
      done;
      match Ilp_solver.solve p with
      | Ilp_solver.Optimal { value; _ } -> Qnum.equal value (q !brute)
      | Ilp_solver.Infeasible -> !brute = min_int
      | Ilp_solver.Unbounded -> false)

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

let test_model_lp_relaxation () =
  Probe.with_seed 41 (fun () ->
      let m = tfft2_model ~p:4 ~q:4 ~h:4 in
      (* Maximize p[F3] under the constraints: the chain and the F8
         storage rows cap it. *)
      let obj = Array.make m.n_phases Qnum.zero in
      obj.(2) <- Qnum.one;
      let lp = Model.to_lp m ~objective:obj in
      match Ilp_solver.solve lp with
      | Ilp_solver.Optimal { value; point } ->
          (* p3 = p4; 2P p4 = 2Q p5 => p5 = p3; p8 = 2Q p7 = 32 p3 and
             p8 <= min(bound 64, storage 128/4 = 32) => p3 = 1. *)
          Alcotest.(check bool) "max p3 = 1" true (Qnum.equal value (Qnum.of_int 1));
          Alcotest.(check int) "p8 = 32" 32 point.(7)
      | _ -> Alcotest.fail "expected optimal")

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

let () =
  Alcotest.run "ilp"
    [
      ( "lp",
        [
          Alcotest.test_case "basic" `Quick test_lp_basic;
          Alcotest.test_case "eq and ge" `Quick test_lp_equality_and_ge;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          QCheck_alcotest.to_alcotest prop_lp_dominates_lattice;
        ] );
      ( "bb",
        [
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "node budget total" `Quick test_ilp_budget;
          QCheck_alcotest.to_alcotest prop_ilp_matches_bruteforce;
        ] );
      ( "model",
        [
          Alcotest.test_case "table 2" `Quick test_model_table2;
          Alcotest.test_case "lp relaxation" `Quick test_model_lp_relaxation;
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
        ] );
    ]
