(* Tests for the locality analysis: Theorem 1 (intra-phase), the
   balanced locality condition (Fig. 9, Eqs. 4-6), Table 1 (spec vs.
   theorem-derived labels), and the LCG of the TFFT2 section (Fig. 6,
   chains). *)

open Symbolic
open Ir
open Descriptor
open Locality

let tfft2 = (Codes.Registry.find "tfft2").program

let v = Expr.var
let i = Expr.int
let ( + ) = Expr.add

let label = Alcotest.testable Table1.pp_label Table1.equal_label

(* ------------------------------------------------------------------ *)
(* Theorem 1 *)

let simple_phase ?(par_hi = Expr.int 31) name refs =
  Build.phase name (Build.doall "i" ~lo:(Expr.int 0) ~hi:par_hi [ Build.assign refs ])

let id_of prog name array =
  let ph =
    List.find (fun (ph : Types.phase) -> ph.phase_name = name) prog.Types.phases
  in
  Id.of_pd (Unionize.simplify (Pd.of_phase (Ard.of_phase (Phase.analyze prog ph)) ~array))

let test_intra_cases () =
  Probe.with_seed 30 (fun () ->
      let prog =
        Build.program ~name:"t" ~params:Assume.empty
          ~arrays:[ Build.array "A" [ i 200 ] ]
          [
            simple_phase "DISJOINT" [ Build.write "A" [ v "i" ] ];
            simple_phase "OVERLAP_R"
              [ Build.read "A" [ v "i" ]; Build.read "A" [ v "i" + i 1 ] ];
            simple_phase "OVERLAP_W"
              [ Build.write "A" [ v "i" ]; Build.write "A" [ v "i" + i 1 ] ];
          ]
      in
      let check name attr expect_local expect_case =
        let sym = Symmetry.analyze (id_of prog name "A") in
        let verdict = Intra.check ~sym ~attr in
        Alcotest.(check bool) (name ^ " local") expect_local verdict.local;
        Alcotest.(check string)
          (name ^ " case") expect_case
          (Intra.case_to_string verdict.case)
      in
      check "DISJOINT" Liveness.W true "no-overlap";
      check "OVERLAP_R" Liveness.R true "overlap-read-only";
      check "OVERLAP_W" Liveness.W false "fails";
      check "OVERLAP_W" Liveness.P true "privatizable")

(* ------------------------------------------------------------------ *)
(* Balanced locality: Fig. 9 (F3-F4: ceil(Q/H) solutions) and
   Eqs. 4-6 (F2-F3 infeasible). *)

let tfft2_lcg ~p ~q ~h =
  Lcg.build tfft2 ~env:(Codes.Registry.bind tfft2 [ ("p", p); ("q", q) ]) ~h

let graph_of lcg array =
  List.find (fun (g : Lcg.graph) -> String.equal g.array array) lcg.Lcg.graphs

let edge_of (g : Lcg.graph) src_name =
  let idx = ref (-1) in
  List.iteri
    (fun k (n : Lcg.node) -> if String.equal n.name src_name then idx := k)
    g.nodes;
  List.find (fun (e : Lcg.edge) -> e.src = !idx && not e.back) g.edges

let test_fig9_f3_f4 () =
  Probe.with_seed 31 (fun () ->
      let h = 4 and p = 4 and q = 4 in
      let lcg = tfft2_lcg ~p ~q ~h in
      let gx = graph_of lcg "X" in
      let e = edge_of gx "F3" in
      Alcotest.check label "F3->F4 is L" Table1.L e.label;
      match e.solution with
      | Some s ->
          (* ceil(Q/H) integer solutions; p3 = p4 = 1 is the smallest. *)
          Alcotest.(check int) "count = ceil(Q/H)" 4 s.count;
          Alcotest.(check int) "p3" 1 s.pk;
          Alcotest.(check int) "p4" 1 s.pg
      | None -> Alcotest.fail "expected a solution")

let test_eq4_f2_f3 () =
  Probe.with_seed 32 (fun () ->
      let lcg = tfft2_lcg ~p:4 ~q:4 ~h:4 in
      let gx = graph_of lcg "X" in
      let e = edge_of gx "F2" in
      Alcotest.check label "F2->F3 is C" Table1.C e.label;
      (* The relation is Eq. 4: p2 + 2QP - P = 2P p3. *)
      match e.relation with
      | Some r ->
          let asm = tfft2.params in
          Alcotest.(check bool) "a = 1" true (Probe.equal asm r.a Expr.one);
          Alcotest.(check bool) "b = 2P" true
            (Probe.equal asm r.b Expr.(mul (int 2) (v "P")));
          Alcotest.(check bool) "c = P - 2PQ" true
            (Probe.equal asm r.c
               Expr.(sub (v "P") (mul (int 2) (mul (v "P") (v "Q")))));
          (* Integer solution p2 = P, p3 = Q exists but violates the
             load-balance bounds (Eqs. 5-6). *)
          let env = (Codes.Registry.find "tfft2").env_of_size 4 in
          let unbounded =
            Balance.solve ~env ~h:1 ~nk:100_000 ~ng:100_000 r
          in
          (match unbounded with
          | Some s ->
              let pP = 16 and qQ = 16 in
              (* family: pk = P(2t - 2Q + 1), pg = t; smallest feasible
                 has pk = P at t = Q *)
              Alcotest.(check bool) "p2 = P, p3 = Q solves Eq. 4" true
                Stdlib.(s.pk + (2 * qQ * pP) - pP = 2 * pP * s.pg)
          | None -> Alcotest.fail "Eq. 4 should be solvable without bounds");
          let bounded =
            Balance.solve ~env ~h:4 ~nk:16 ~ng:16 r
          in
          Alcotest.(check bool) "infeasible under Eqs. 5-6" true (bounded = None)
      | None -> Alcotest.fail "expected a relation")

(* ------------------------------------------------------------------ *)
(* Table 1: the verbatim table agrees with the theorem-derived rule on
   all 60 cells. *)

let test_table1_agreement () =
  List.iter
    (fun (ak, ag) ->
      List.iter
        (fun overlap ->
          List.iter
            (fun balanced ->
              match Table1.spec ak ag ~overlap ~balanced with
              | None -> ()
              | Some expected ->
                  Alcotest.check label
                    (Printf.sprintf "%s-%s overlap=%b balanced=%b"
                       (Liveness.attr_to_string ak)
                       (Liveness.attr_to_string ag)
                       overlap balanced)
                    expected
                    (Inter.derive ak ag ~overlap ~balanced))
            [ true; false ])
        [ true; false ])
    Table1.rows

(* Every Table 1 row exists and the 15 pairs are exactly the paper's. *)
let test_table1_shape () =
  Alcotest.(check int) "15 rows" 15 (List.length Table1.rows);
  List.iter
    (fun (ak, ag) ->
      Alcotest.(check bool) "cell defined" true
        (Table1.spec ak ag ~overlap:true ~balanced:true <> None))
    Table1.rows;
  (* the paper omits P-R *)
  Alcotest.(check bool) "P-R omitted" true
    (Table1.spec Liveness.P Liveness.R ~overlap:false ~balanced:false = None)

(* Spot-check classified cells end-to-end with synthetic phase pairs. *)
let test_inter_end_to_end () =
  Probe.with_seed 33 (fun () ->
      let prog =
        Build.program ~name:"t" ~params:Assume.empty
          ~arrays:[ Build.array "A" [ i 200 ] ]
          [
            simple_phase "W_OVER"
              [ Build.write "A" [ v "i" ]; Build.write "A" [ v "i" + i 1 ] ];
            simple_phase "R_AFTER" [ Build.read "A" [ v "i" ] ];
          ]
      in
      let env = Env.empty in
      let lcg = Lcg.build prog ~env ~h:4 in
      let g = graph_of lcg "A" in
      let e = List.hd g.edges in
      (* W with overlapping storage into R: always C (Table 1 row 5). *)
      Alcotest.check label "W(overlap)->R = C" Table1.C e.label)

(* ------------------------------------------------------------------ *)
(* Fig. 6: the LCG of the TFFT2 section *)

let test_fig6_lcg () =
  Probe.with_seed 34 (fun () ->
      let lcg = tfft2_lcg ~p:4 ~q:4 ~h:4 in
      let gx = graph_of lcg "X" and gy = graph_of lcg "Y" in
      let attrs g =
        List.map
          (fun (n : Lcg.node) -> (n.name, Liveness.attr_to_string n.attr))
          g.Lcg.nodes
      in
      Alcotest.(check (list (pair string string)))
        "X attributes"
        [
          ("F1", "R"); ("F2", "W"); ("F3", "R/W"); ("F4", "R");
          ("F5", "W"); ("F6", "R/W"); ("F7", "R"); ("F8", "W");
        ]
        (attrs gx);
      Alcotest.(check (list (pair string string)))
        "Y attributes"
        [
          ("F1", "W"); ("F2", "R"); ("F3", "P"); ("F4", "W");
          ("F5", "R"); ("F6", "R/W"); ("F8", "R");
        ]
        (attrs gy);
      let labels g =
        List.filter_map
          (fun (e : Lcg.edge) ->
            if e.back then None else Some (Table1.label_to_string e.label))
          g.Lcg.edges
      in
      (* X: F1 -C- F2 -C- F3 -L- F4 -L- F5 -L- F6 -L- F7 -L- F8 *)
      Alcotest.(check (list string)) "X labels"
        [ "C"; "C"; "L"; "L"; "L"; "L"; "L" ]
        (labels gx);
      (* Y: F1 -L- F2 -D- F3 -D- F4 -C- F5 -L- F6 -L- F8
         (paper: (F2,F3) and (F3,F4) un-coupled) *)
      Alcotest.(check (list string)) "Y labels"
        [ "L"; "D"; "D"; "C"; "L"; "L" ]
        (labels gy);
      (* chains *)
      Alcotest.(check (list (list int))) "X chains"
        [ [ 0 ]; [ 1 ]; [ 2; 3; 4; 5; 6; 7 ] ]
        (Lcg.chains gx);
      Alcotest.(check (list (list int))) "Y chains"
        [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4; 5; 6 ] ]
        (Lcg.chains gy))

(* Privatizable workspace: F3's Y is P because F4 overwrites all of Y
   before F5 reads it; un-coupling removes both adjacent edges. *)
let test_uncoupled_edges () =
  Probe.with_seed 35 (fun () ->
      let lcg = tfft2_lcg ~p:3 ~q:3 ~h:2 in
      let gy = graph_of lcg "Y" in
      let nd =
        List.find (fun (n : Lcg.node) -> String.equal n.name "F3") gy.nodes
      in
      Alcotest.(check string) "F3 Y attr" "P" (Liveness.attr_to_string nd.attr);
      Alcotest.(check bool) "intra" true nd.intra.local)

(* The halo of a stencil node measures the ghost frontier. *)
let test_halo () =
  Probe.with_seed 36 (fun () ->
      let prog = (Codes.Registry.find "jacobi2d").program in
      let env = Env.of_list [ ("N", 16) ] in
      let lcg = Lcg.build prog ~env ~h:2 in
      let gu = graph_of lcg "U" in
      let sweep = List.hd gu.nodes in
      (* U regions of consecutive columns share 2 ghost columns:
         UL(I(0)) - LB(I(1)) + 1 = 2N - 2 = 30 *)
      Alcotest.(check int) "jacobi U halo" 30 sweep.halo;
      let gv = graph_of lcg "V" in
      let sweep_v = List.hd gv.nodes in
      Alcotest.(check int) "jacobi V halo" 0 sweep_v.halo)

(* ------------------------------------------------------------------ *)
(* The diophantine solver against brute force *)

let prop_solve_bruteforce =
  QCheck.Test.make ~name:"Balance.solve = brute force" ~count:300
    QCheck.(
      tup4 (int_range 1 12) (int_range 1 12) (int_range (-30) 30)
        (pair (int_range 1 6) (pair (int_range 1 40) (int_range 1 40))))
    (fun (a, b, c, (h, (nk, ng))) ->
      let rel =
        { Balance.a = Expr.int a; b = Expr.int b; c = Expr.int c }
      in
      (* replicate the sub-stride snap of the implementation *)
      let c' = if c <> 0 && abs c < max a b then 0 else c in
      let pk_max = Stdlib.((nk + h - 1) / h)
      and pg_max = Stdlib.((ng + h - 1) / h) in
      let brute = ref [] in
      for pk = 1 to pk_max do
        for pg = 1 to pg_max do
          if Stdlib.((a * pk) - (b * pg) = c') then brute := (pk, pg) :: !brute
        done
      done;
      let brute = List.rev !brute in
      match Balance.solve ~env:Env.empty ~h ~nk ~ng rel with
      | None -> brute = []
      | Some s ->
          List.length brute = s.count
          && (match brute with
             | (pk, pg) :: _ -> pk = s.pk && pg = s.pg
             | [] -> false))

(* Chain summaries: coverage of the "common data sub-region" claim. *)
let test_chain_summaries () =
  Probe.with_seed 37 (fun () ->
      let lcg = tfft2_lcg ~p:4 ~q:4 ~h:4 in
      let sums = Chain.summaries lcg in
      (* X: chains F1 | F2 | F3..F8; Y: F1-F2 | F3 | F4 | F5-F6-F8 *)
      Alcotest.(check int) "seven chains" 7 (List.length sums);
      let y_chain =
        List.find
          (fun (s : Chain.summary) ->
            s.array = "Y" && List.length s.members = 3)
          sums
      in
      Alcotest.(check bool) "Y tail chain covers alike" true
        y_chain.covers_alike;
      Alcotest.(check int) "whole array" 512 y_chain.chain_size;
      (* the F3..F8 X chain mixes butterfly halves with full sweeps:
         coverage varies, and the summary must say so *)
      let x_chain =
        List.find
          (fun (s : Chain.summary) ->
            s.array = "X" && List.length s.members = 6)
          sums
      in
      Alcotest.(check bool) "X chain coverage varies" false
        x_chain.covers_alike)

let test_stability_envs_deterministic () =
  let a = Stability.sample_envs tfft2 in
  let b = Stability.sample_envs tfft2 in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun ea eb ->
      Alcotest.(check bool) "same env" true
        (Env.bindings ea = Env.bindings eb))
    a b

let test_stability () =
  Probe.with_seed 38 (fun () ->
      let t = Stability.analyze ~h_values:[ 2; 4 ] (Codes.Registry.find "jacobi2d").program in
      (* jacobi's cyclic chain is L at every size and width *)
      Alcotest.(check bool) "jacobi fully stable" true (Stability.all_stable t);
      List.iter
        (fun (e : Stability.edge_report) ->
          Alcotest.(check bool) "stable L" true
            (e.stable = Some Table1.L))
        t;
      (* tfft2's F4-F5 coupling (P p4 = Q p5) degrades with H *)
      let t2 =
        Stability.analyze ~h_values:[ 2; 64 ] tfft2
      in
      let f45 =
        List.find
          (fun (e : Stability.edge_report) ->
            e.array = "X" && e.src = "F4" && e.dst = "F5")
          t2
      in
      Alcotest.(check bool) "F4-F5 not stable across H" true
        (f45.stable = None))

(* The LCG of tfft2 and matmul is built in closed form at every size:
   no fallback, and no walk over the analyzed extents, so its cost does
   not grow with them (liveness enumerated 4.8 M addresses on tfft2 at
   size 8 and 67 M on matmul before its closed form covered them).
   matmul's three walks are Symmetry's write checks of A at sampled
   environments, the same 882 addresses at every size.  Each build is
   cold, as one dsmloc invocation is. *)
let test_lcg_closed_form () =
  List.iter
    (fun (name, walks) ->
      let e = Codes.Registry.find name in
      List.iter
        (fun size ->
          Artifact.clear_all ();
          Metrics.reset ();
          ignore (Lcg.build e.program ~env:(e.env_of_size size) ~h:2);
          let counters = (Metrics.snapshot ()).Metrics.counters in
          let count c = Option.value ~default:0 (List.assoc_opt c counters) in
          Alcotest.(check (list int))
            (Printf.sprintf "%s@%d: fallbacks, walks, addresses" name size)
            walks
            (List.map count [ "symbolic.fallback"; "enum.iter"; "enum.addresses" ]))
        [ 8; 10; 12 ])
    [ ("tfft2", [ 0; 0; 0 ]); ("matmul", [ 0; 3; 882 ]) ]

(* One fact, every reader: each array's size and each region footprint
   is evaluated once, in the LCG, and every reader reads it there.  The
   size fact must be [Linearize.array_size] at the LCG's environment,
   and the footprint (closed form, and its enumerated twin) the
   distinct addresses the Region oracle enumerates, for every node
   alone and for every chain's rectangular members together. *)
let test_one_fact () =
  let oracle env (nodes : Lcg.node list) =
    match
      List.map (fun (n : Lcg.node) -> Region.addresses env n.pd ~par:None) nodes
    with
    | tables ->
        let union = Hashtbl.create 256 in
        List.iter (Hashtbl.iter (fun a () -> Hashtbl.replace union a ())) tables;
        Some (Hashtbl.length union)
    | exception Region.Not_rectangular _ -> None
  in
  let in_mode mode f =
    let cell = Lattice.mode_cell () in
    let saved = !cell in
    Fun.protect ~finally:(fun () -> cell := saved) (fun () -> cell := mode; f ())
  in
  let check what prog env h =
    let lcg = Lcg.build prog ~env ~h in
    List.iter
      (fun (d : Types.array_decl) ->
        Alcotest.(check (option int))
          (Printf.sprintf "%s: size of %s" what d.name)
          (Result.to_option (Linearize.array_size env prog d.name))
          (Lcg.size lcg d.name))
      prog.Types.arrays;
    List.iter
      (fun (g : Lcg.graph) ->
        let sets =
          List.map (fun (n : Lcg.node) -> [ n ]) g.nodes
          @ List.map
              (fun chain ->
                List.filter
                  (fun n -> oracle env [ n ] <> None)
                  (List.map (List.nth g.nodes) chain))
              (Lcg.chains g)
        in
        List.iter
          (fun nodes ->
            let want = oracle env nodes in
            let name =
              Printf.sprintf "%s: %s footprint of %s" what g.array
                (String.concat "," (List.map (fun (n : Lcg.node) -> n.name) nodes))
            in
            Alcotest.(check (option int)) (name ^ " (closed form)") want
              (in_mode Lattice.Auto (fun () -> Lcg.footprint lcg nodes));
            Alcotest.(check (option int)) (name ^ " (enumerated)") want
              (in_mode Lattice.Enumerated_only (fun () -> Lcg.footprint lcg nodes)))
          sets)
      lcg.graphs
  in
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun h ->
          Probe.with_seed 41 (fun () ->
              check (Printf.sprintf "%s H=%d" e.name h) e.program
                (e.env_of_size e.default_size) h))
        [ 4; 16; 64 ])
    Codes.Registry.all;
  List.iter
    (fun (profile, label, count, h) ->
      for index = 0 to count - 1 do
        let prog = Fuzz.Gen.program profile ~seed:2026 ~index in
        Probe.with_seed 2026 (fun () ->
            check (Printf.sprintf "%s#%d" label index) prog
              (Fuzz.Gen.midpoint_env prog) h)
      done)
    [ (Fuzz.Gen.deep, "deep", 12, 16); (Fuzz.Gen.default, "default", 40, 4) ]

let () =
  Alcotest.run "locality"
    [
      ("intra", [ Alcotest.test_case "theorem 1 cases" `Quick test_intra_cases ]);
      ( "balance",
        [
          Alcotest.test_case "fig9 F3-F4" `Quick test_fig9_f3_f4;
          Alcotest.test_case "eq4-6 F2-F3" `Quick test_eq4_f2_f3;
        ] );
      ( "table1",
        [
          Alcotest.test_case "spec = derived (60 cells)" `Quick
            test_table1_agreement;
          Alcotest.test_case "shape" `Quick test_table1_shape;
          Alcotest.test_case "end-to-end W(ov)->R" `Quick test_inter_end_to_end;
        ] );
      ( "solver",
        [ QCheck_alcotest.to_alcotest prop_solve_bruteforce ] );
      ( "lcg",
        [
          Alcotest.test_case "fig6 TFFT2" `Quick test_fig6_lcg;
          Alcotest.test_case "uncoupled P nodes" `Quick test_uncoupled_edges;
          Alcotest.test_case "stencil halo" `Quick test_halo;
          Alcotest.test_case "chain summaries" `Quick test_chain_summaries;
          Alcotest.test_case "label stability" `Slow test_stability;
          Alcotest.test_case "stability envs deterministic" `Quick
            test_stability_envs_deterministic;
          Alcotest.test_case "tfft2 and matmul without enumeration" `Quick
            test_lcg_closed_form;
          Alcotest.test_case "one fact, every reader" `Quick test_one_fact;
        ] );
    ]
