(* Tests for the benchmark kernels: every registry entry analyzes
   cleanly end to end, and per-code structural expectations hold. *)

open Symbolic
open Ir
open Locality

let tfft2 = (Codes.Registry.find "tfft2").program

let graph_of (lcg : Lcg.t) array =
  List.find (fun (g : Lcg.graph) -> String.equal g.array array) lcg.graphs

let lcg_of name size h =
  let e = Codes.Registry.find name in
  Lcg.build e.program ~env:(e.env_of_size size) ~h

let test_registry_complete () =
  Alcotest.(check (list string))
    "nine codes"
    [ "tfft2"; "jacobi2d"; "swim"; "tomcatv"; "matmul"; "adi"; "redblack";
      "trisolve"; "mgrid" ]
    Codes.Registry.names;
  List.iter
    (fun (e : Codes.Registry.entry) ->
      (* every phase analyzable, every descriptor exact *)
      List.iter
        (fun ph ->
          let ctx = Phase.analyze e.program ph in
          List.iter
            (fun array ->
              let pd = Descriptor.Pd.of_phase ctx ~array in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/%s exact" e.name ph.Types.phase_name array)
                true pd.exact)
            (Types.phase_arrays ph))
        e.program.phases)
    Codes.Registry.all

let test_all_analyze () =
  Probe.with_seed 60 (fun () ->
      List.iter
        (fun (e : Codes.Registry.entry) ->
          let lcg = lcg_of e.name 3 4 in
          (* one graph per array, nodes only where referenced *)
          Alcotest.(check int)
            (e.name ^ " graphs")
            (List.length e.program.arrays)
            (List.length lcg.graphs);
          List.iter
            (fun (g : Lcg.graph) ->
              List.iter
                (fun (edge : Lcg.edge) ->
                  Alcotest.(check bool) "edge endpoints valid" true
                    (edge.src >= 0 && edge.dst < List.length g.nodes))
                g.edges)
            lcg.graphs)
        Codes.Registry.all)

let test_jacobi_structure () =
  Probe.with_seed 61 (fun () ->
      let lcg = lcg_of "jacobi2d" 4 4 in
      let gu = graph_of lcg "U" and gv = graph_of lcg "V" in
      (* cyclic program: back edges exist *)
      Alcotest.(check bool) "U back edge" true
        (List.exists (fun (e : Lcg.edge) -> e.back) gu.edges);
      (* all forward edges L: the steady state is communication-free
         modulo frontier updates *)
      List.iter
        (fun (e : Lcg.edge) ->
          Alcotest.(check bool) "U edge L" true
            (Table1.equal_label e.label Table1.L))
        gu.edges;
      List.iter
        (fun (e : Lcg.edge) ->
          Alcotest.(check bool) "V edge L" true
            (Table1.equal_label e.label Table1.L))
        gv.edges;
      (* U read with overlap in SWEEP; read-only so intra holds *)
      let sweep = List.hd gu.nodes in
      Alcotest.(check bool) "overlap" true
        (sweep.sym.overlap <> Descriptor.Symmetry.No_overlap);
      Alcotest.(check bool) "intra via read-only" true sweep.intra.local)

let test_matmul_replication () =
  Probe.with_seed 62 (fun () ->
      let lcg = lcg_of "matmul" 3 4 in
      let ga = graph_of lcg "A" in
      let mult = List.hd ga.nodes in
      (* A is invariant across the parallel loop: reported as total
         overlap, intra-local because read-only *)
      Alcotest.(check string) "A attr" "R" (Liveness.attr_to_string mult.attr);
      Alcotest.(check bool) "A overlap (replicated)" true
        (mult.sym.overlap <> Descriptor.Symmetry.No_overlap);
      Alcotest.(check bool) "A intra" true mult.intra.local;
      (* C chain INIT -> MULT -> SCALE all L *)
      let gc = graph_of lcg "C" in
      List.iter
        (fun (e : Lcg.edge) ->
          Alcotest.(check bool) "C edges L" true
            (Table1.equal_label e.label Table1.L))
        gc.edges)

let test_mgrid_stride_coupling () =
  Probe.with_seed 63 (fun () ->
      let lcg = lcg_of "mgrid" 6 4 in
      let model = Ilp.Model.of_lcg lcg in
      (* the FTMP SMOOTHF->RESTRICT relation must couple p_SF = 2 p_RS *)
      let rel =
        List.find
          (fun (l : Ilp.Model.locality) ->
            String.equal l.array "FTMP" && l.k = 0 && l.g = 1)
          model.locality
      in
      Alcotest.(check (pair int int)) "1 * p_SF = 2 * p_RS" (1, 2) (rel.ai, rel.bi);
      Alcotest.(check int) "no constant" 0 rel.ci)

let test_tomcatv_serial_phase () =
  Probe.with_seed 64 (fun () ->
      let e = Codes.Registry.find "tomcatv" in
      let combine = List.nth e.program.phases 2 in
      let ctx = Phase.analyze e.program combine in
      Alcotest.(check bool) "COMBINE has no parallel loop" true (ctx.par = None);
      (* PARTIAL is written in NORM and read in COMBINE: edge must not
         be D *)
      let lcg = lcg_of "tomcatv" 3 4 in
      let gp = graph_of lcg "PARTIAL" in
      Alcotest.(check int) "two nodes" 2 (List.length gp.nodes))

let test_swim_all_chains () =
  Probe.with_seed 65 (fun () ->
      let lcg = lcg_of "swim" 4 4 in
      (* every array's forward edges are L (single chain per array) *)
      List.iter
        (fun (g : Lcg.graph) ->
          List.iter
            (fun (e : Lcg.edge) ->
              if not e.back then
                Alcotest.(check bool)
                  (Printf.sprintf "swim %s edge L" g.array)
                  true
                  (Table1.equal_label e.label Table1.L))
            g.edges)
        lcg.graphs)

(* The fig-1-only program stays in sync with the full pipeline's F3. *)
let test_tfft2_fig1_consistency () =
  Probe.with_seed 66 (fun () ->
      let fig1 = Codes.Registry.fig1 in
      let full = tfft2 in
      let f3_fig1 = List.hd fig1.phases in
      let f3_full = List.nth full.phases 2 in
      let env = Codes.Registry.bind tfft2 [ ("p", 3); ("q", 2) ] in
      let a = Enumerate.address_set fig1 env f3_fig1 ~array:"X" in
      let b = Enumerate.address_set full env f3_full ~array:"X" in
      Alcotest.(check (list int)) "same X footprint"
        (Descriptor.Region.sorted a) (Descriptor.Region.sorted b))

let test_adi_needs_redistribution () =
  Probe.with_seed 67 (fun () ->
      let lcg = lcg_of "adi" 4 4 in
      let gu = graph_of lcg "U" in
      (* no static distribution serves both sweeps: at least one C edge *)
      Alcotest.(check bool) "has C edge" true
        (List.exists
           (fun (e : Lcg.edge) -> Table1.equal_label e.label Table1.C)
           gu.edges);
      (* and the run actually redistributes between the sweeps *)
      let e = Codes.Registry.find "adi" in
      let t = Core.Pipeline.run e.program ~env:(e.env_of_size 4) ~h:4 in
      let r = Core.Pipeline.simulate t in
      Alcotest.(check bool) "redistribution happened" true
        (List.exists (fun (c : Dsmsim.Exec.comm_stats) -> c.words > 0) r.comms))

let test_redblack_write_precision () =
  Probe.with_seed 69 (fun () ->
      let lcg = lcg_of "redblack" 5 4 in
      let gg = graph_of lcg "G" in
      let red = List.hd gg.nodes in
      (* consecutive iterations share READ cells but never written ones *)
      Alcotest.(check bool) "overlap present" true
        (red.sym.overlap <> Descriptor.Symmetry.No_overlap);
      Alcotest.(check bool) "no write overlap" false red.sym.write_overlap;
      Alcotest.(check bool) "intra holds" true red.intra.local;
      (* hence the RED -> BLACK edge can be L despite in-place updates *)
      List.iter
        (fun (e : Lcg.edge) ->
          Alcotest.(check bool) "edge L" true
            (Table1.equal_label e.label Table1.L))
        gg.edges)

let test_epoch_entry_two_rounds () =
  Probe.with_seed 70 (fun () ->
      (* entering a halo'd epoch needs an owner copy-in followed by a
         replica-initialization round - two Redistribute events *)
      let e = Codes.Registry.find "mgrid" in
      let t = Core.Pipeline.run e.program ~env:(e.env_of_size 4) ~h:32 in
      let sched = Dsmsim.Comm.generate t.lcg t.plan in
      let ftmp_entries =
        List.filter
          (function
            | Dsmsim.Comm.Redistribute { array = "FTMP"; before_phase = 1; _ } ->
                true
            | _ -> false)
          sched
      in
      Alcotest.(check int) "copy-in + replica init" 2
        (List.length ftmp_entries))

let test_trisolve_conservative () =
  Probe.with_seed 68 (fun () ->
      (* triangular per-iteration regions: the Y chain SOLVE->REDUCE may
         or may not balance, but the analysis must stay sound - the
         pipeline runs, the simulator conserves accesses, and the
         dataflow validator certifies the schedule *)
      let e = Codes.Registry.find "trisolve" in
      let t = Core.Pipeline.run e.program ~env:(e.env_of_size 4) ~h:4 in
      let r = Core.Pipeline.simulate t in
      Alcotest.(check bool) "runs" true (r.par_time > 0.0);
      let v = Exec.Validate.run t.lcg t.plan in
      Alcotest.(check int) "no stale reads" 0 v.stale)

let () =
  Alcotest.run "codes"
    [
      ( "registry",
        [
          Alcotest.test_case "complete and exact" `Quick test_registry_complete;
          Alcotest.test_case "all analyze" `Quick test_all_analyze;
        ] );
      ( "structure",
        [
          Alcotest.test_case "jacobi" `Quick test_jacobi_structure;
          Alcotest.test_case "matmul replication" `Quick test_matmul_replication;
          Alcotest.test_case "mgrid stride coupling" `Quick
            test_mgrid_stride_coupling;
          Alcotest.test_case "tomcatv serial phase" `Quick
            test_tomcatv_serial_phase;
          Alcotest.test_case "swim chains" `Quick test_swim_all_chains;
          Alcotest.test_case "tfft2 fig1 = full F3" `Quick
            test_tfft2_fig1_consistency;
          Alcotest.test_case "adi needs redistribution" `Quick
            test_adi_needs_redistribution;
          Alcotest.test_case "trisolve conservative" `Quick
            test_trisolve_conservative;
          Alcotest.test_case "redblack write precision" `Quick
            test_redblack_write_precision;
          Alcotest.test_case "epoch entry two rounds" `Quick
            test_epoch_entry_two_rounds;
        ] );
    ]
