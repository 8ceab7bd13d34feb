(* Golden snapshots of the LCG for every registry kernel: node access
   attributes (R / W / R/W / P, Sec. 3) and Table 1 edge labels
   (L / C / D, Theorem 2) are pinned so that the memoisation layer
   (env.eval, probe.bank, phase.analyze, shape.sites) can never
   silently change an analysis result.

   Regenerate after an intentional analysis change with

     GOLDEN_UPDATE=1 dune exec test/test_golden_lcg.exe

   and paste the emitted bindings over the [golden] table below. *)

open Symbolic

let size_of (e : Codes.Registry.entry) = min e.default_size 6

let render (t : Locality.Lcg.t) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun (g : Locality.Lcg.graph) ->
      Buffer.add_string buf ("array " ^ g.array ^ "\n");
      List.iteri
        (fun i (n : Locality.Lcg.node) ->
          Buffer.add_string buf
            (Printf.sprintf "  node %d %s(%s)\n" i n.name
               (Ir.Liveness.attr_to_string n.attr)))
        g.nodes;
      List.iter
        (fun (e : Locality.Lcg.edge) ->
          Buffer.add_string buf
            (Printf.sprintf "  edge %d->%d:%s%s\n" e.src e.dst
               (Locality.Table1.label_to_string e.label)
               (if e.back then " back" else "")))
        g.edges)
    t.graphs;
  Buffer.contents buf

let snapshot name =
  let e = Codes.Registry.find name in
  Probe.with_seed 601 (fun () ->
      Symbolic.Artifact.clear_all ();
      let t =
        Core.Pipeline.run e.program ~env:(e.env_of_size (size_of e)) ~h:4
      in
      (* a second run answers from warm caches; it must render the same *)
      let t2 =
        Core.Pipeline.run e.program ~env:(e.env_of_size (size_of e)) ~h:4
      in
      (render t.Core.Pipeline.lcg, render t2.Core.Pipeline.lcg))

let golden : (string * string) list =
  [
    ("tfft2", {golden|array X
  node 0 F1(R)
  node 1 F2(W)
  node 2 F3(R/W)
  node 3 F4(R)
  node 4 F5(W)
  node 5 F6(R/W)
  node 6 F7(R)
  node 7 F8(W)
  edge 0->1:C
  edge 1->2:C
  edge 2->3:L
  edge 3->4:L
  edge 4->5:L
  edge 5->6:L
  edge 6->7:L
array Y
  node 0 F1(W)
  node 1 F2(R)
  node 2 F3(P)
  node 3 F4(W)
  node 4 F5(R)
  node 5 F6(R/W)
  node 6 F8(R)
  edge 0->1:L
  edge 1->2:D
  edge 2->3:D
  edge 3->4:C
  edge 4->5:L
  edge 5->6:L
|golden});
    ("jacobi2d", {golden|array U
  node 0 SWEEP(R)
  node 1 COPY(W)
  edge 0->1:L
  edge 1->0:L back
array V
  node 0 SWEEP(W)
  node 1 COPY(R)
  edge 0->1:L
  edge 1->0:L back
|golden});
    ("swim", {golden|array U
  node 0 CALC1(R)
  node 1 CALC3(W)
  edge 0->1:L
  edge 1->0:L back
array V
  node 0 CALC1(R)
  node 1 CALC3(W)
  edge 0->1:L
  edge 1->0:L back
array P
  node 0 CALC1(R)
  node 1 CALC2(R)
  node 2 CALC3(W)
  edge 0->1:L
  edge 1->2:L
  edge 2->0:L back
array CU
  node 0 CALC1(W)
  node 1 CALC2(R)
  edge 0->1:L
  edge 1->0:L back
array CV
  node 0 CALC1(W)
  node 1 CALC2(R)
  edge 0->1:L
  edge 1->0:L back
array PNEW
  node 0 CALC2(W)
  node 1 CALC3(R)
  edge 0->1:L
  edge 1->0:L back
|golden});
    ("tomcatv", {golden|array X
  node 0 RESID(R)
  node 1 UPDATE(R/W)
  edge 0->1:L
  edge 1->0:L back
array Y
  node 0 RESID(R)
  node 1 UPDATE(R/W)
  edge 0->1:L
  edge 1->0:L back
array RX
  node 0 RESID(W)
  node 1 NORM(R)
  node 2 UPDATE(R)
  edge 0->1:L
  edge 1->2:L
  edge 2->0:L back
array RY
  node 0 RESID(W)
  node 1 NORM(R)
  node 2 UPDATE(R)
  edge 0->1:L
  edge 1->2:L
  edge 2->0:L back
array PARTIAL
  node 0 NORM(W)
  node 1 COMBINE(R)
  edge 0->1:C
  edge 1->0:C back
|golden});
    ("matmul", {golden|array A
  node 0 MULT(R)
array B
  node 0 MULT(R)
array C
  node 0 INIT(W)
  node 1 MULT(R/W)
  node 2 SCALE(R/W)
  edge 0->1:L
  edge 1->2:L
|golden});
    ("adi", {golden|array U
  node 0 COLSWEEP(R/W)
  node 1 ROWSWEEP(R/W)
  edge 0->1:C
  edge 1->0:C back
|golden});
    ("redblack", {golden|array G
  node 0 RED(R/W)
  node 1 BLACK(R/W)
  edge 0->1:L
  edge 1->0:L back
|golden});
    ("trisolve", {golden|array L
  node 0 SOLVE(R)
array X
  node 0 SOLVE(R)
array Y
  node 0 SOLVE(W)
  node 1 REDUCE(R)
  edge 0->1:C
|golden});
    ("mgrid", {golden|array FINE
  node 0 SMOOTHF(R)
  node 1 PROLONG(W)
  edge 0->1:L
  edge 1->0:L back
array FTMP
  node 0 SMOOTHF(W)
  node 1 RESTRICT(R)
  node 2 PROLONG(R)
  edge 0->1:L
  edge 1->2:L
  edge 2->0:L back
array COARSE
  node 0 RESTRICT(W)
  node 1 SMOOTHC(R)
  edge 0->1:L
  edge 1->0:L back
array CTMP
  node 0 SMOOTHC(W)
  node 1 PROLONG(R)
  edge 0->1:L
  edge 1->0:L back
|golden});
  ]

let update_mode = Sys.getenv_opt "GOLDEN_UPDATE" = Some "1"

let emit_update () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let cold, _ = snapshot e.name in
      Printf.printf "    (\"%s\", {golden|%s|golden});\n" e.name cold)
    Codes.Registry.all

let test_kernel name () =
  let expected =
    match List.assoc_opt name golden with
    | Some s -> s
    | None -> Alcotest.failf "no golden snapshot for %s" name
  in
  let cold, warm = snapshot name in
  Alcotest.(check string) (name ^ " cold run matches golden") expected cold;
  Alcotest.(check string) (name ^ " warm (cached) run matches golden") expected
    warm

let () =
  if update_mode then emit_update ()
  else
    Alcotest.run "golden-lcg"
      [
        ( "table1",
          List.map
            (fun (e : Codes.Registry.entry) ->
              Alcotest.test_case e.name `Quick (test_kernel e.name))
            Codes.Registry.all );
      ]
