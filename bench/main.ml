(* Paper reproduction.

   Regenerates the rows/series every table and figure of the paper
   reports, plus the extension studies, printed to stdout and recorded
   in EXPERIMENTS.md.  Performance is measured by dsmbench, not here.

     dune exec bench/main.exe            # every table and figure
     dune exec bench/main.exe -- curve   # efficiency-vs-H curve only
                                         # (H to 1024, sizes to 2^30)
*)

open Symbolic
open Descriptor
open Locality

let tfft2 = (Codes.Registry.find "tfft2").program

let sep title =
  Printf.printf "\n==================== %s ====================\n" title

(* ------------------------------------------------------------------ *)
(* Shared analysis objects *)

(* Everything derived from the program is lazy: forcing it at module
   initialization would run phase analysis and probe-driven
   simplification before [Probe.with_seed] takes effect in [main],
   making the printed artifacts depend on the ambient seed. *)
let fig1_prog = Codes.Registry.fig1
let f3_ctx = lazy (Ir.Phase.analyze fig1_prog (List.hd fig1_prog.phases))
let x_raw () = Pd.of_phase (Ard.of_phase (Lazy.force f3_ctx)) ~array:"X"
let x_final = lazy (Unionize.simplify (x_raw ()))
let small_env = Env.of_list [ ("p", 2); ("P", 4); ("q", 0); ("Q", 3) ]

(* Each paper claim below is printed with the verdict of a comparison
   this program makes; any mismatch makes the run exit 1. *)
let mismatches = ref 0

let claim text ok =
  if not ok then incr mismatches;
  Printf.printf "%s  [%s]\n" text (if ok then "MATCH" else "MISMATCH")

(* Symbolic equality of expressions (lists of them), and the paper's
   parameters as expressions. *)
let same a b = Expr.is_zero (Expr.sub a b)
let same_all a b = List.length a = List.length b && List.for_all2 same a b
let pp_ = Expr.var "P" and qq_ = Expr.var "Q"
let times k e = Expr.mul (Expr.int k) e

(* ------------------------------------------------------------------ *)
(* Figure reproductions *)

let fig1 () =
  sep "Fig. 1: TFFT2 phase F3 (source form)";
  Format.printf "%a@." Ir.Types.pp_phase (List.hd fig1_prog.phases)

let fig2 () =
  sep "Fig. 2: ARDs of the X references in F3";
  Printf.printf
    "paper (1-based L): alpha = (Q, (P-2)*2^-L + 1, P*2^-L, 2^(L-1)),\n\
    \                   delta = (2P, J*2^(L-1), 2^(L-1), 1), tau = 0 and P/2\n\
     computed (0-based L after loop normalization):\n";
  let ctx = Lazy.force f3_ctx in
  List.iter
    (fun site -> Format.printf "  %a@." Ard.pp (Ard.of_site ctx site))
    (Ir.Phase.sites_of_array ctx "X")

let fig3 () =
  sep "Fig. 3: PD simplification chain (a) -> (d)";
  let raw = x_raw () in
  Format.printf "(a) raw:@.%a@." Pd.pp raw;
  Format.printf "(b,c) after stride coalescing:@.%a@." Pd.pp (Coalesce.pd raw);
  let final = Lazy.force x_final in
  Format.printf "(d) after access descriptor union:@.%a@." Pd.pp final;
  claim "paper final: strides (2P, 1), alphas (Q, P), tau 0"
    (match final.groups with
    | [ { dims; rows = [ row ]; _ } ] ->
        same_all (List.map (fun (d : Pd.dim) -> d.stride) dims) [ times 2 pp_; Expr.one ]
        && same_all row.alphas [ qq_; pp_ ]
        && Expr.is_zero row.offset
    | _ -> false)

let fig4 () =
  sep "Fig. 4: IDs of X for i = 0, 1, 2 at P=4, Q=3";
  let regions =
    List.map
      (fun it ->
        let region =
          Region.sorted
            (Region.addresses small_env (Lazy.force x_final) ~par:(Some it))
        in
        Printf.printf "  I(X,%d) = {%s}\n" it
          (String.concat ", " (List.map string_of_int region));
        region)
      [ 0; 1; 2 ]
  in
  claim "paper: {0..3}, {8..11}, {16..19}"
    (regions = List.map (fun lo -> List.init 4 (( + ) lo)) [ 0; 8; 16 ])

let fig5 () =
  sep "Fig. 5: storage symmetry distances";
  let asm = Assume.of_list [ ("N", Assume.Int_range (40, 80)) ] in
  let v = Expr.var and i = Expr.int in
  let mk name body =
    let prog =
      Ir.Build.program ~name ~params:asm
        ~arrays:[ Ir.Build.array "A" [ Expr.int 200 ] ]
        [ Ir.Build.phase name body ]
    in
    let ph = List.hd prog.phases in
    Id.of_pd
      (Unionize.simplify (Pd.of_phase (Ard.of_phase (Ir.Phase.analyze prog ph)) ~array:"A"))
  in
  let shifted =
    mk "S"
      (Ir.Build.doall "i" ~lo:Expr.zero ~hi:(Expr.sub (v "N") Expr.one)
         [
           Ir.Build.assign
             [
               Ir.Build.read "A" [ v "i" ];
               Ir.Build.read "A" [ Expr.add (v "i") (i 17) ];
             ];
         ])
  in
  let reverse =
    mk "R"
      (Ir.Build.doall "i" ~lo:Expr.zero ~hi:(i 13)
         [
           Ir.Build.assign
             [
               Ir.Build.read "A" [ v "i" ];
               Ir.Build.read "A" [ Expr.sub (i 26) (v "i") ];
             ];
         ])
  in
  let overlap =
    mk "O"
      (Ir.Build.doall "i" ~lo:Expr.zero ~hi:(Expr.sub (v "N") Expr.one)
         [
           Ir.Build.do_ "j" ~lo:Expr.zero ~hi:(i 7)
             [
               Ir.Build.assign
                 [ Ir.Build.read "A" [ Expr.add (Expr.mul (i 3) (v "i")) (v "j") ] ];
             ];
         ])
  in
  let show name id =
    Format.printf "  (%s) %a@." name Symmetry.pp (Symmetry.analyze id)
  in
  show "a: shifted, paper Delta_d = 17" shifted;
  show "b: reverse, paper Delta_r = 27" reverse;
  show "c: overlap, paper Delta_s = 5" overlap

let lcg_44 =
  lazy (Lcg.build tfft2 ~env:((Codes.Registry.find "tfft2").env_of_size 4) ~h:4)

let fig6 () =
  sep "Fig. 6: LCG of the TFFT2 section (H=4, P=Q=16)";
  let lcg = Lazy.force lcg_44 in
  Format.printf "%a@." Lcg.pp lcg;
  (* the forward edges of one array's graph as (from, to, label) *)
  let edges array =
    let g = List.find (fun (g : Lcg.graph) -> g.array = array) lcg.graphs in
    let name i = (List.nth g.nodes i).Lcg.name in
    List.filter_map
      (fun (e : Lcg.edge) ->
        if e.back then None
        else Some (name e.src, name e.dst, Table1.label_to_string e.label))
      g.edges
  in
  let x = edges "X" and y = edges "Y" in
  claim
    "paper: X chain F3..F8 all L with F1-F2, F2-F3 C; Y has (F2,F3) and\n\
     (F3,F4) un-coupled."
    (x
     = [ ("F1", "F2", "C"); ("F2", "F3", "C") ]
       @ List.init 5 (fun k ->
             (Printf.sprintf "F%d" (k + 3), Printf.sprintf "F%d" (k + 4), "L"))
    && List.mem ("F2", "F3", "D") y
    && List.mem ("F3", "F4", "D") y);
  Printf.printf
    "caveat: F6-Y is R/W here, P in the figure; the figure conflicts\n\
     with Table 2's own 2Q p62 = p82 row - see EXPERIMENTS.md\n"

let fig7 () =
  sep "Fig. 7: Theorem 1 case analysis";
  let v = Expr.var and i = Expr.int in
  let prog =
    Ir.Build.program ~name:"t" ~params:Assume.empty
      ~arrays:[ Ir.Build.array "A" [ i 200 ] ]
      [
        Ir.Build.phase "PRIV"
          (Ir.Build.doall "i" ~lo:Expr.zero ~hi:(i 31)
             [
               Ir.Build.assign
                 [ Ir.Build.write "A" [ v "i" ]; Ir.Build.read "A" [ v "i" ] ];
             ]);
        Ir.Build.phase "DISJ"
          (Ir.Build.doall "i" ~lo:Expr.zero ~hi:(i 31)
             [ Ir.Build.assign [ Ir.Build.write "A" [ v "i" ] ] ]);
        Ir.Build.phase "OVER_R"
          (Ir.Build.doall "i" ~lo:Expr.zero ~hi:(i 31)
             [
               Ir.Build.assign
                 [
                   Ir.Build.read "A" [ v "i" ];
                   Ir.Build.read "A" [ Expr.add (v "i") Expr.one ];
                 ];
             ]);
      ]
  in
  let id name =
    let ph =
      List.find (fun (p : Ir.Types.phase) -> p.phase_name = name) prog.phases
    in
    Id.of_pd
      (Unionize.simplify (Pd.of_phase (Ard.of_phase (Ir.Phase.analyze prog ph)) ~array:"A"))
  in
  let show case name attr =
    let verdict = Intra.check ~sym:(Symmetry.analyze (id name)) ~attr in
    Printf.printf "  (%s) attr %s: local=%b via %s\n" case
      (Ir.Liveness.attr_to_string attr)
      verdict.local
      (Intra.case_to_string verdict.case)
  in
  show "a" "PRIV" Ir.Liveness.P;
  show "b" "DISJ" Ir.Liveness.W;
  show "c" "OVER_R" Ir.Liveness.R

let fig8 () =
  sep "Fig. 8: upper limits and memory gap (P=4, Q=3)";
  (* UL and h as the LCG computes them: the balanced-locality side of
     the ID, whose representative row gives UL and whose gap is h. *)
  let ok =
    let id = Id.of_pd (Lazy.force x_final) in
    match Balance.side ~overlap:(Symmetry.has_overlap id) id with
    | None ->
        Printf.printf "  UL, h = ? (no balanced-locality side)\n";
        false
    | Some side ->
        let uls =
          List.map
            (fun it ->
              let ul =
                Env.eval small_env (Id.upper_at side.primary ~i:(Expr.int it))
              in
              Printf.printf "  UL(I(X,%d)) = %d\n" it ul;
              ul)
            [ 0; 1; 2 ]
        in
        let gap = Env.eval small_env side.gap in
        Format.printf "  h = %a = %d@." Expr.pp side.gap gap;
        uls = [ 3; 11; 19 ] && gap = 4
  in
  claim "paper: UL = 3, 11, 19; h = 4" ok

let fig9 () =
  sep "Fig. 9 / Eqs. 4-6: balanced locality";
  let lcg = Lazy.force lcg_44 in
  let gx = List.find (fun (g : Lcg.graph) -> g.array = "X") lcg.graphs in
  let edge src =
    List.find
      (fun (e : Lcg.edge) -> (not e.back) && (List.nth gx.nodes e.src).name = src)
      gx.edges
  in
  let e34 = edge "F3" in
  (match (e34.relation, e34.solution) with
  | Some r, Some s ->
      Format.printf
        "  F3-F4: %a;  %d solutions (paper: ceil(Q/H) = 4), smallest p3=p4=%d@."
        Balance.pp_relation r s.count s.pk
  | _ -> Printf.printf "  F3-F4: no relation\n");
  let e23 = edge "F2" in
  match e23.relation with
  | Some r ->
      Format.printf "  F2-F3: %a  (paper Eq. 4: p2 + 2QP - P = 2P p3)@."
        Balance.pp_relation r;
      (* (p2, p3) = (P, Q) solves the relation, but lies outside the
         load-balance windows 1 <= p <= ceil(n/H) of Eqs. 5-6 *)
      let solves =
        same (Expr.mul r.a pp_) (Expr.add (Expr.mul r.b qq_) r.c)
      in
      let outside v (node : Lcg.node) = v > (node.par_n + lcg.h - 1) / lcg.h in
      claim
        (Printf.sprintf
           "         label %s: integer solution p2=P, p3=Q violates Eqs. 5-6"
           (Table1.label_to_string e23.label))
        (e23.label = Table1.C && solves
        && (outside (Env.eval lcg.env pp_) (List.nth gx.nodes e23.src)
           || outside (Env.eval lcg.env qq_) (List.nth gx.nodes e23.dst)))
  | None -> Printf.printf "  F2-F3: no relation\n"

let table1 () =
  sep "Table 1: LCG edge-label classification (spec = theorem-derived)";
  Printf.printf "%-12s | %-6s %-6s | %-6s %-6s\n" "F_k - F_g" "Ov+Bal" "Ov+Unb"
    "No+Bal" "No+Unb";
  let cells = ref 0 in
  List.iter
    (fun (ak, ag) ->
      let cell overlap balanced =
        match Table1.spec ak ag ~overlap ~balanced with
        | None -> "-"
        | Some spec ->
            let derived = Inter.derive ak ag ~overlap ~balanced in
            if Table1.equal_label spec derived then Table1.label_to_string spec
            else begin
              incr cells;
              Printf.sprintf "%s!%s"
                (Table1.label_to_string spec)
                (Table1.label_to_string derived)
            end
      in
      Printf.printf "%-12s | %-6s %-6s | %-6s %-6s\n"
        (Printf.sprintf "%s - %s"
           (Ir.Liveness.attr_to_string ak)
           (Ir.Liveness.attr_to_string ag))
        (cell true true) (cell true false) (cell false true)
        (cell false false))
    Table1.rows;
  Printf.printf "mismatches between paper table and derived rule: %d\n"
    !cells;
  mismatches := !mismatches + !cells

let table2 () =
  sep "Table 2: TFFT2 constraint system (H=4, P=Q=16)";
  let model = Ilp.Model.of_lcg (Lazy.force lcg_44) in
  Format.printf "%a@." Ilp.Model.pp model;
  (* a row a p_k = b p_g + c against the paper's a' p_k = b' p_g: the
     same phases, c = 0 and a b' = b a' *)
  let row (l : Ilp.Model.locality) (k, a, g, b) =
    l.k = k - 1 && l.g = g - 1 && Expr.is_zero l.c
    && same (Expr.mul l.a b) (Expr.mul l.b a)
  in
  let rows array =
    List.filter (fun (l : Ilp.Model.locality) -> l.array = array) model.locality
  in
  let one = Expr.one in
  claim "paper X rows: p31=p41, P p41=Q p51, p51=p61, p61=p71, 2Q p71=p81"
    (let paper =
       [ (3, one, 4, one); (4, pp_, 5, qq_); (5, one, 6, one); (6, one, 7, one);
         (7, times 2 qq_, 8, one) ]
     in
     let xs = rows "X" in
     List.length xs = List.length paper && List.for_all2 row xs paper);
  let storage =
    List.filter (fun (s : Ilp.Model.storage) -> s.array = "X") model.storage
  in
  let pq = Expr.mul pp_ qq_ in
  claim
    "paper Y rows: p12=Q p22 and 2Q p62=p82 reproduced; storage rows\n\
     p.H <= PQ, PQ/2, PQ (Delta_d, Delta_r/2) reproduced"
    (List.for_all
       (fun r -> List.exists (fun l -> row l r) (rows "Y"))
       [ (1, one, 2, qq_); (6, times 2 qq_, 8, one) ]
    && List.map (fun (s : Ilp.Model.storage) -> s.kind) storage
       = [ `Shifted; `Reverse; `Reverse ]
    && List.for_all
         (fun (s : Ilp.Model.storage) -> s.coeff = (Lazy.force lcg_44).h)
         storage
    && same_all
         (List.map (fun (s : Ilp.Model.storage) -> s.limit_expr) storage)
         [ pq; Expr.scale (Qnum.make 1 2) pq; pq ])

let eq7 () =
  sep "Eq. 7: overhead objective and solved distribution";
  Printf.printf "%4s %14s %12s %12s %s\n" "H" "objective" "D" "C" "chunks";
  List.iter
    (fun h ->
      let lcg =
        Lcg.build tfft2 ~env:((Codes.Registry.find "tfft2").env_of_size 4) ~h
      in
      let model = Ilp.Model.of_lcg lcg in
      let r = Ilp.Solve.solve model (Ilp.Cost.default_machine ~h) in
      Printf.printf "%4d %14.1f %12.1f %12.1f %s\n" h r.objective r.d_cost
        r.c_cost
        (String.concat "," (Array.to_list (Array.map string_of_int r.p))))
    [ 2; 4; 8; 16 ]

let efficiency () =
  sep "Sec. 4.3: parallel efficiency (LCG plan vs BLOCK baseline)";
  let sizes =
    [
      ("tfft2", 8); ("jacobi2d", 8); ("swim", 8); ("tomcatv", 8);
      ("matmul", 6); ("adi", 8); ("redblack", 12); ("mgrid", 10);
    ]
  in
  Printf.printf "%-9s %5s |" "code" "size";
  List.iter (fun h -> Printf.printf "   H=%-10d" h) [ 4; 16; 64 ];
  Printf.printf "\n%-9s %5s |" "" "";
  List.iter (fun _ -> Printf.printf "   %-5s %-6s" "LCG" "BLOCK") [ 4; 16; 64 ];
  Printf.printf "\n";
  let over70 = ref 0 and total = ref 0 in
  List.iter
    (fun (name, size) ->
      let e = Codes.Registry.find name in
      let env = e.env_of_size size in
      Printf.printf "%-9s %5d |" name size;
      List.iter
        (fun h ->
          let t = Core.Pipeline.run e.program ~env ~h in
          let eff, base = Core.Pipeline.efficiency t in
          if h = 64 then begin
            incr total;
            if eff >= 0.70 then incr over70
          end;
          Printf.printf "   %5.1f %5.1f" (100. *. eff) (100. *. base))
        [ 4; 16; 64 ];
      Printf.printf "\n%!")
    sizes;
  Printf.printf
    "paper claim: > 70%% parallel efficiency at 64 processors; measured:\n\
     %d of %d codes above 70%% at H=64 (see EXPERIMENTS.md for discussion)\n"
    !over70 !total

(* ------------------------------------------------------------------ *)
(* Analysis scalability (extension): compile-time cost of the whole
   front half (descriptors -> LCG) as the number of phases grows. *)

let scalability () =
  sep "Analysis scalability: LCG build time vs. phase count";
  let mk_chain k =
    let open Ir.Build in
    let n = var "N" in
    let phases =
      List.init k (fun i ->
          phase
            (Printf.sprintf "P%d" i)
            (doall "c" ~lo:(int 1)
               ~hi:(n - int 2)
               [
                 do_ "r" ~lo:(int 1) ~hi:(n - int 2)
                   [
                     assign ~work:3
                       [
                         read (if i mod 2 = 0 then "A" else "B")
                           [ var "r" + (n * var "c") ];
                         write (if i mod 2 = 0 then "B" else "A")
                           [ var "r" + (n * var "c") ];
                       ];
                   ];
               ]))
    in
    program ~name:(Printf.sprintf "chain%d" k)
      ~params:(Assume.of_list [ ("N", Assume.Int_range (8, 32)) ])
      ~arrays:[ array "A" [ n * n ]; array "B" [ n * n ] ]
      phases
  in
  Printf.printf "%8s %12s %14s\n" "phases" "LCG (ms)" "full pipe (ms)";
  List.iter
    (fun k ->
      let prog = mk_chain k in
      let env = Env.of_list [ ("N", 32) ] in
      let t0 = Unix.gettimeofday () in
      let _ = Locality.Lcg.build prog ~env ~h:8 in
      let t1 = Unix.gettimeofday () in
      let _ = Core.Pipeline.run prog ~env ~h:8 in
      let t2 = Unix.gettimeofday () in
      Printf.printf "%8d %12.1f %14.1f\n%!" k
        (1000. *. (t1 -. t0))
        (1000. *. (t2 -. t1)))
    [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Weak scaling (extension): problem size grows with H so per-processor
   work stays constant; the locality-derived plan should hold its
   efficiency where the baseline's communication share explodes. *)

let weak_scaling () =
  sep "Weak scaling (extension): jacobi2d, N^2/H constant";
  Printf.printf "%4s %6s %10s %10s\n" "H" "N" "LCG" "BLOCK";
  List.iter
    (fun (h, size) ->
      let e = Codes.Registry.find "jacobi2d" in
      let env = e.env_of_size size in
      let t = Core.Pipeline.run e.program ~env ~h in
      let eff, base = Core.Pipeline.efficiency t in
      Printf.printf "%4d %6d %9.1f%% %9.1f%%\n%!" h (1 lsl size)
        (100. *. eff) (100. *. base))
    [ (1, 6); (4, 7); (16, 8); (64, 9) ]

(* ------------------------------------------------------------------ *)
(* Label stability across sizes and machine widths *)

let stability () =
  sep "Compile-time label stability (TFFT2, sampled sizes, H = 2..64)";
  let t = Locality.Stability.analyze tfft2 in
  Format.printf "@[<v>%a@]@." Locality.Stability.pp t;
  Printf.printf
    "reading: couplings like P p4 = Q p5 and 2Q p7 = p8 hold while the\n\
     load-balance windows (Eqs. 2-3) admit solutions and collapse to C\n\
     beyond - the Eqs. 4-6 phenomenon, quantified.\n"

(* ------------------------------------------------------------------ *)
(* Dataflow certification: Theorems 1-2 as an executable check *)

let validation () =
  sep "Dataflow validation: every read sequentially fresh under the plan";
  Printf.printf "%-9s %8s %8s %8s\n" "code" "H=4" "H=16" "H=64";
  List.iter
    (fun (e : Codes.Registry.entry) ->
      Printf.printf "%-9s" e.name;
      List.iter
        (fun h ->
          let t = Core.Pipeline.run e.program ~env:(e.env_of_size 4) ~h in
          let rounds = if e.program.repeats then 2 else 1 in
          let r = Exec.Validate.run ~rounds t.lcg t.plan in
          Printf.printf " %7s "
            (match Exec.Validate.verdict r with
            | Pass -> "PASS"
            | Stale -> Printf.sprintf "%d!" r.stale
            | Checked_nothing -> "EMPTY"))
        [ 4; 16; 64 ];
      Printf.printf "\n%!")
    Codes.Registry.all

(* ------------------------------------------------------------------ *)
(* Crossover: where the locality-derived plan stops paying.  ADI must
   redistribute twice per timestep; as the message startup cost grows
   the naive BLOCK plan (which never redistributes but reads remotely)
   eventually wins.  *)

let crossover () =
  sep "Crossover: ADI, H=8, sweeping message startup cost";
  let e = Codes.Registry.find "adi" in
  let env = e.env_of_size 6 in
  let h = 8 in
  Printf.printf "%10s %10s %10s %10s\n" "t_startup" "LCG" "BLOCK" "winner";
  let crossed = ref None in
  List.iter
    (fun t_startup ->
      let machine = { (Ilp.Cost.default_machine ~h) with t_startup } in
      let t = Core.Pipeline.run ~machine e.program ~env ~h in
      let lcg_eff = (Core.Pipeline.simulate t).efficiency in
      let blk_eff = (Core.Pipeline.simulate_baseline t).efficiency in
      if blk_eff > lcg_eff && !crossed = None then crossed := Some t_startup;
      Printf.printf "%10d %9.1f%% %9.1f%% %10s\n%!" t_startup
        (100. *. lcg_eff) (100. *. blk_eff)
        (if lcg_eff >= blk_eff then "LCG" else "BLOCK"))
    [ 0; 100; 400; 1600; 6400; 25600; 102400 ];
  (match !crossed with
  | Some c -> Printf.printf "crossover: BLOCK overtakes at t_startup ~ %d cycles\n" c
  | None -> Printf.printf "no crossover in the swept range\n")

(* ------------------------------------------------------------------ *)
(* Ablations: contribution of each design choice (DESIGN.md sec. 7) *)

let ablations () =
  sep "Ablations: efficiency at H=16 with features disabled";
  Printf.printf "%-9s | %7s %8s %9s %8s %7s\n" "code" "full" "no-halo"
    "no-fold" "chunk=1" "BLOCK";
  List.iter
    (fun (name, size) ->
      let e = Codes.Registry.find name in
      let env = e.env_of_size size in
      let h = 16 in
      let t = Core.Pipeline.run e.program ~env ~h in
      let eff plan = (Dsmsim.Exec.run t.lcg plan t.machine).efficiency in
      let full = eff t.plan in
      let no_halo =
        eff
          {
            t.plan with
            Ilp.Distribution.layouts =
              List.map
                (fun (l : Ilp.Distribution.layout) -> { l with halo = 0 })
                t.plan.layouts;
          }
      in
      let no_fold =
        eff
          {
            t.plan with
            Ilp.Distribution.layouts =
              List.map
                (fun (l : Ilp.Distribution.layout) ->
                  { l with period = None; mirror = None })
                t.plan.layouts;
          }
      in
      let chunk1 =
        let p1 = Array.map (fun _ -> 1) t.plan.chunk in
        eff (Ilp.Distribution.of_solution t.lcg ~p:p1)
      in
      let block = eff (Ilp.Distribution.block_plan t.lcg) in
      Printf.printf "%-9s | %6.1f%% %7.1f%% %8.1f%% %7.1f%% %6.1f%%\n%!" name
        (100. *. full) (100. *. no_halo) (100. *. no_fold) (100. *. chunk1)
        (100. *. block))
    [ ("tfft2", 6); ("jacobi2d", 6); ("swim", 6); ("mgrid", 8) ]

(* ------------------------------------------------------------------ *)
(* Efficiency-vs-H curve under the closed-form accounting: H up to
   1024 and size knobs up to 2^30 are far past what enumeration (or
   the simulator) can sweep, so each point records the analysis wall
   time, the Eq. 7 overhead, and the model-level efficiency estimate
   (ideal per-processor work over work-plus-overhead).  Kernels whose
   analysis leaves the closed-form fragment degrade and are reported
   with [degraded=true] rather than silently skipped.  When an Eq. 7
   window is wider than the plan stage can tally the pipeline ships the
   BLOCK plan, not the exact optimum whose objective the solution
   carries, so such points record [budget_exhausted=true] and no
   efficiency. *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

let utc_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let counter_value (snap : Metrics.snapshot) name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let bench_curve () =
  sep "Efficiency-vs-H curve, closed-form accounting (BENCH_pipeline.json)";
  let hs = [ 4; 16; 64; 256; 1024 ] in
  let size_exps = [ 10; 20; 30 ] in
  let saved_mode = !Symbolic.Lattice.mode in
  Symbolic.Lattice.mode := Symbolic.Lattice.Symbolic_only;
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"bench_curve/2\",\"rev\":\"%s\",\"date\":\"%s\",\"points\":["
       (Metrics.json_escape (git_rev ()))
       (Metrics.json_escape (utc_date ())));
  Printf.printf "%-10s %6s %6s %10s %12s %7s %9s\n" "kernel" "size" "H"
    "wall ms" "objective" "eff" "degraded";
  let first = ref true in
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun se ->
          let env = e.env_of_size se in
          List.iter
            (fun h ->
              let before = Metrics.snapshot () in
              let t0 = Metrics.now () in
              let t = Core.Pipeline.run e.program ~env ~h in
              let wall = Metrics.now () -. t0 in
              let after = Metrics.snapshot () in
              let delta name =
                counter_value after name - counter_value before name
              in
              let work =
                List.fold_left
                  (fun acc ph ->
                    Option.bind acc (fun w ->
                        match Ir.Shape.of_phase e.program env ph with
                        | Some s -> Some (w + Ir.Shape.total_work s)
                        | None | (exception _) -> None))
                  (Some 0) e.program.Ir.Types.phases
              in
              let exhausted = t.solution.budget_exhausted in
              let eff =
                if exhausted then None
                else
                  Option.map
                    (fun w ->
                      let ideal = float_of_int w /. float_of_int h in
                      ideal /. (ideal +. t.solution.objective))
                    work
              in
              let degraded = Core.Pipeline.degraded t in
              Printf.printf "%-10s %6s %6d %10.2f %12.1f %7s %9b\n%!" e.name
                (Printf.sprintf "2^%d" se) h (1000. *. wall)
                t.solution.objective
                (match eff with
                | Some x -> Printf.sprintf "%5.1f%%" (100. *. x)
                | None -> "-")
                degraded;
              if not !first then Buffer.add_char buf ',';
              first := false;
              Buffer.add_string buf
                (Printf.sprintf
                   "{\"kernel\":\"%s\",\"size_log2\":%d,\"h\":%d,\"wall_seconds\":%s,\"objective\":%s,\"model_efficiency\":%s,\"budget_exhausted\":%b,\"degraded\":%b,\"fallbacks\":%d,\"enum_addresses\":%d}"
                   (Metrics.json_escape e.name)
                   se h
                   (Metrics.json_float wall)
                   (Metrics.json_float t.solution.objective)
                   (match eff with
                   | Some x -> Metrics.json_float x
                   | None -> "null")
                   exhausted degraded
                   (delta "symbolic.fallback")
                   (delta "enum.addresses")))
            hs)
        size_exps)
    Codes.Registry.all;
  Symbolic.Lattice.mode := saved_mode;
  Buffer.add_string buf "]}\n";
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_pipeline.json"
  in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "appended to BENCH_pipeline.json (%d curve points)\n"
    (List.length Codes.Registry.names
    * List.length hs * List.length size_exps)

let reproduce () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  table1 ();
  table2 ();
  eq7 ();
  efficiency ();
  ablations ();
  crossover ();
  weak_scaling ();
  scalability ();
  stability ();
  validation ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
      Probe.with_seed 2026 reproduce;
      if !mismatches > 0 then begin
        Printf.printf "%d paper claim(s) not reproduced\n" !mismatches;
        exit 1
      end
  | [ _; "curve" ] -> Probe.with_seed 2026 bench_curve
  | _ ->
      prerr_endline "usage: main.exe [curve]";
      exit 2
