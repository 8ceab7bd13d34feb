(* Tests for the descriptor algebra: ARDs (Fig. 2), PD simplification
   (Fig. 3), iteration descriptors and regions (Fig. 4), storage
   symmetry (Fig. 5), upper limits and memory gap (Fig. 8) - plus
   property tests validating every operation against the IR enumeration
   oracle. *)

open Symbolic
open Ir
open Descriptor

let tfft2 = (Codes.Registry.find "tfft2").program

let expr = Alcotest.testable Expr.pp Expr.equal
let v = Expr.var
let i = Expr.int
let ( + ) = Expr.add
let ( - ) = Expr.sub
let ( * ) = Expr.mul
let ( / ) = Expr.div
let p2 = Expr.pow2

let fig1 = Codes.Registry.fig1
let f3_ctx = Phase.analyze fig1 (List.hd fig1.phases)
let asm = f3_ctx.assume
let peq msg a b = Alcotest.(check bool) msg true (Probe.equal asm a b)

(* ------------------------------------------------------------------ *)
(* Fig. 2: the ARDs of the two X reads in F3 *)

let test_fig2_ards () =
  Probe.with_seed 7 (fun () ->
      let sites = Phase.sites_of_array f3_ctx "X" in
      Alcotest.(check int) "three refs (2 reads + 1 write)" 3 (List.length sites);
      let a1 = Ard.of_site f3_ctx (List.nth sites 0) in
      let a2 = Ard.of_site f3_ctx (List.nth sites 1) in
      Alcotest.(check bool) "exact" true (a1.exact && a2.exact);
      (* The paper's alpha = (Q, (P-2)*2^-L + 1, P*2^-L, 2^(L-1)) with
         L in 1..p; after loop normalization L runs 0..p-1, so every L
         below is the paper's L-1. *)
      let expected_alphas =
        [
          v "Q";
          ((v "P" - i 2) * p2 (i (-1) - v "L")) + i 1;
          v "P" * p2 (i (-1) - v "L");
          p2 (v "L");
        ]
      in
      List.iteri
        (fun k (d : Ard.dim) ->
          peq (Printf.sprintf "alpha_%d" k) (List.nth expected_alphas k) d.alpha)
        a1.dims;
      (* delta = (2P, J*2^(L-1), 2^(L-1), 1) in paper terms = with
         normalized L: (2P, J*2^L, 2^L, 1) *)
      let expected_strides =
        [ i 2 * v "P"; v "J" * p2 (v "L"); p2 (v "L"); i 1 ]
      in
      List.iteri
        (fun k (d : Ard.dim) ->
          peq (Printf.sprintf "delta_%d" k) (List.nth expected_strides k) d.stride)
        a1.dims;
      (* signs all +1, offsets 0 and P/2 *)
      List.iter (fun (d : Ard.dim) -> Alcotest.(check int) "sign" 1 d.sign) a1.dims;
      Alcotest.(check expr) "tau_1" Expr.zero a1.offset;
      peq "tau_2 = P/2" (v "P" / i 2) a2.offset;
      (* the L dim is flagged non-uniform (stride depends on L itself) *)
      let dl = List.nth a1.dims 1 in
      Alcotest.(check bool) "L dim non-uniform" false dl.uniform)

(* ------------------------------------------------------------------ *)
(* Fig. 3: coalescing chain (a) -> (c), union -> (d) *)

let x_pd_raw () = Pd.of_phase (Ard.of_phase f3_ctx) ~array:"X"
let x_pd_coalesced () = Coalesce.pd (x_pd_raw ())
let x_pd_final () = Unionize.simplify (x_pd_raw ())

let test_fig3_coalesce () =
  Probe.with_seed 8 (fun () ->
      let pd = x_pd_coalesced () in
      Alcotest.(check int) "one group" 1 (List.length pd.groups);
      let g = List.hd pd.groups in
      Alcotest.(check int) "two dims survive" 2 (List.length g.dims);
      Alcotest.(check (option int)) "par dim is first" (Some 0) g.par;
      peq "par stride 2P" (i 2 * v "P") (List.nth g.dims 0).stride;
      peq "seq stride 1" (i 1) (List.nth g.dims 1).stride;
      (* rows: alphas (Q, P/2); coalescing alone keeps all three
         reference rows (R at 0, R at P/2, W at 0) - deduplication is
         the union's job *)
      Alcotest.(check int) "three rows" 3 (List.length g.rows);
      List.iter
        (fun (r : Pd.row) ->
          peq "alpha par = Q" (v "Q") (List.nth r.alphas 0);
          peq "alpha seq = P/2" (v "P" / i 2) (List.nth r.alphas 1))
        g.rows)

let test_fig3_union () =
  Probe.with_seed 9 (fun () ->
      let pd = x_pd_final () in
      let g = List.hd pd.groups in
      Alcotest.(check int) "single row after union" 1 (List.length g.rows);
      let r = List.hd g.rows in
      peq "alpha par = Q" (v "Q") (List.nth r.alphas 0);
      peq "alpha seq = P" (v "P") (List.nth r.alphas 1);
      Alcotest.(check expr) "tau = 0" Expr.zero r.offset;
      Alcotest.(check bool) "mix RW" true
        (r.mix.Access_mix.reads && r.mix.Access_mix.writes))

(* ------------------------------------------------------------------ *)
(* Fig. 4: ID regions for P=4, Q=3 *)

let test_fig4_ids () =
  Probe.with_seed 10 (fun () ->
      let id = Id.of_pd (x_pd_final ()) in
      let env = Env.of_list [ ("p", 2); ("P", 4); ("q", 0); ("Q", 3) ] in
      let region par =
        Region.sorted
          (Region.addresses env
             { (x_pd_final ()) with groups = (x_pd_final ()).groups }
             ~par)
      in
      Alcotest.(check (list int)) "I(X,0)" [ 0; 1; 2; 3 ] (region (Some 0));
      Alcotest.(check (list int)) "I(X,1)" [ 8; 9; 10; 11 ] (region (Some 1));
      Alcotest.(check (list int)) "I(X,2)" [ 16; 17; 18; 19 ] (region (Some 2));
      Alcotest.(check bool) "rectangular" true (Id.rectangular id))

(* ------------------------------------------------------------------ *)
(* Fig. 8: upper limits UL = 3, 11, 19 and memory gap h = 4, read from
   the balanced-locality side the LCG builds its edges from *)

let test_fig8_bounds () =
  Probe.with_seed 11 (fun () ->
      let side =
        let id = Id.of_pd (x_pd_final ()) in
        match Locality.Balance.side ~overlap:(Symmetry.has_overlap id) id with
        | Some s -> s
        | None -> Alcotest.fail "no balanced-locality side"
      in
      let env = Env.of_list [ ("p", 2); ("P", 4); ("q", 0); ("Q", 3) ] in
      let ul k = Env.eval env (Id.upper_at side.primary ~i:(Expr.int k)) in
      Alcotest.(check int) "UL(I(X,0))" 3 (ul 0);
      Alcotest.(check int) "UL(I(X,1))" 11 (ul 1);
      Alcotest.(check int) "UL(I(X,2))" 19 (ul 2);
      peq "h = P symbolically" (v "P") side.gap;
      Alcotest.(check int) "h = 4 at P=4" 4 (Env.eval env side.gap);
      (* chunked: UL(I, 0, p) + h = 2P(p-1) + P - 1 + P = 2Pp - 1 *)
      let asm' = Assume.add asm "pk" (Assume.Int_range (1, 8)) in
      Alcotest.(check bool) "UL + h of a chunk" true
        (Probe.equal asm'
           (Locality.Balance.ul_plus_h side ~p:(v "pk"))
           ((i 2 * v "P" * v "pk") - i 1)))

(* ------------------------------------------------------------------ *)
(* Fig. 5: the three storage symmetries with the paper's distances *)

let sym_params = Assume.of_list [ ("N", Assume.Int_range (40, 80)) ]

let sym_program phases =
  Build.program ~name:"sym" ~params:sym_params
    ~arrays:[ Build.array "A" [ i 200 ] ]
    phases

let id_of prog name array =
  let ph = List.find (fun (ph : Types.phase) -> ph.phase_name = name) prog.Types.phases in
  let ctx = Phase.analyze prog ph in
  Id.of_pd (Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array))

let test_fig5_shifted () =
  Probe.with_seed 12 (fun () ->
      (* (a) shifted storage, Delta_d = 17 *)
      let prog =
        sym_program
          [
            Build.(
              phase "S"
                (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
                   [ assign [ read "A" [ var "i" ]; read "A" [ var "i" + int 17 ] ] ]));
          ]
      in
      let id = id_of prog "S" "A" in
      let sym = Symmetry.analyze id in
      Alcotest.(check int) "one shifted pair" 1 (List.length sym.shifted);
      Alcotest.(check expr) "Delta_d = 17" (i 17) (List.hd sym.shifted);
      Alcotest.(check int) "no reverse" 0 (List.length sym.reverse))

let test_fig5_reverse () =
  Probe.with_seed 13 (fun () ->
      (* (b) reverse storage, Delta_r = 27: A(i) up, A(26 - i) down -
         the inclusive span [0..26] has 27 elements *)
      let prog =
        sym_program
          [
            Build.(
              phase "R"
                (doall "i" ~lo:(int 0) ~hi:(int 13)
                   [ assign [ read "A" [ var "i" ]; read "A" [ int 26 - var "i" ] ] ]));
          ]
      in
      let id = id_of prog "R" "A" in
      let sym = Symmetry.analyze id in
      Alcotest.(check int) "one reverse pair" 1 (List.length sym.reverse);
      Alcotest.(check expr) "Delta_r = 27" (i 27) (List.hd sym.reverse);
      Alcotest.(check int) "no shifted" 0 (List.length sym.shifted))

let test_fig5_overlap () =
  Probe.with_seed 14 (fun () ->
      (* (c) overlapping storage, Delta_s = 5: regions [3i .. 3i+7] *)
      let prog =
        sym_program
          [
            Build.(
              phase "O"
                (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
                   [
                     do_ "j" ~lo:(int 0) ~hi:(int 7)
                       [ assign [ read "A" [ (int 3 * var "i") + var "j" ] ] ];
                   ]));
          ]
      in
      let id = id_of prog "O" "A" in
      let sym = Symmetry.analyze id in
      (match sym.overlap with
      | Symmetry.Overlap d -> Alcotest.(check expr) "Delta_s = 5" (i 5) d
      | Symmetry.No_overlap | Symmetry.Overlap_unknown ->
          Alcotest.fail "expected closed-form overlap");
      Alcotest.(check bool) "has_overlap" true (Symmetry.has_overlap id))

let test_no_overlap_dense () =
  Probe.with_seed 15 (fun () ->
      let id = Id.of_pd (x_pd_final ()) in
      Alcotest.(check bool) "tfft2 F3 has no overlap" false (Symmetry.has_overlap id))

(* ------------------------------------------------------------------ *)
(* F8 symmetry: Delta_d = PQ; Delta_r = PQ-1 and 2PQ-1 *)

let test_f8_symmetry () =
  Probe.with_seed 16 (fun () ->
      let prog = tfft2 in
      let id = id_of prog "F8" "X" in
      let sym = Symmetry.analyze id in
      let pq = v "P" * v "Q" in
      Alcotest.(check int) "one distinct Delta_d" 1 (List.length sym.shifted);
      peq "Delta_d = PQ" pq (List.hd sym.shifted);
      Alcotest.(check int) "two distinct Delta_r" 2 (List.length sym.reverse);
      let sorted_r = sym.reverse in
      Alcotest.(check bool) "Delta_r = {PQ, 2PQ}" true
        (List.exists (fun d -> Probe.equal asm d pq) sorted_r
        && List.exists (fun d -> Probe.equal asm d (i 2 * pq)) sorted_r))

(* ------------------------------------------------------------------ *)
(* F2 (TRANSA): interleaved column write merges to alpha=(P, 2Q),
   stride (1; P) - Eq. 4's LHS shape *)

let test_f2_columns () =
  Probe.with_seed 17 (fun () ->
      let prog = tfft2 in
      let ph = List.nth prog.phases 1 in
      let ctx = Phase.analyze prog ph in
      let pd = Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array:"X") in
      let g = List.hd pd.groups in
      Alcotest.(check int) "one group" 1 (List.length pd.groups);
      Alcotest.(check int) "one row" 1 (List.length g.rows);
      let r = List.hd g.rows in
      peq "par stride 1" (i 1)
        (match Pd.par_stride g with Some s -> s | None -> Expr.zero);
      let seq = Pd.seq_dims g in
      Alcotest.(check int) "one seq dim" 1 (List.length seq);
      let _, d = List.hd seq in
      peq "seq stride P" (v "P") d.stride;
      peq "seq count 2Q" (i 2 * v "Q")
        (List.nth r.alphas (fst (List.hd seq)));
      Alcotest.(check expr) "tau 0" Expr.zero r.offset)

(* F3-with-workspace: the Y read region is contained in the written
   region and disappears; one dense RW row of width 2P remains. *)
let test_f3_workspace_containment () =
  Probe.with_seed 18 (fun () ->
      let prog = tfft2 in
      let ph = List.nth prog.phases 2 in
      let ctx = Phase.analyze prog ph in
      let pd = Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array:"Y") in
      let rows = List.concat_map (fun (g : Pd.group) -> g.rows) pd.groups in
      Alcotest.(check int) "single row" 1 (List.length rows);
      let r = List.hd rows in
      Alcotest.(check bool) "RW" true (r.mix.reads && r.mix.writes))

(* ------------------------------------------------------------------ *)
(* Offset adjustment (Sec. 2.1) *)

let test_offset_adjust () =
  Probe.with_seed 19 (fun () ->
      let prog =
        sym_program
          [
            Build.(
              phase "A1"
                (doall "i" ~lo:(int 0) ~hi:(int 9)
                   [ assign [ read "A" [ (int 4 * var "i") + int 12 ] ] ]));
            Build.(
              phase "A2"
                (doall "i" ~lo:(int 0) ~hi:(int 9)
                   [ assign [ read "A" [ int 4 * var "i" ] ] ]));
          ]
      in
      let pd_of name =
        let ph = List.find (fun (ph : Types.phase) -> ph.phase_name = name) prog.phases in
        Unionize.simplify (Pd.of_phase (Ard.of_phase (Phase.analyze prog ph)) ~array:"A")
      in
      (* tau_min = 0 and A1 sits R = floor(12/4) = 3 strides above it:
         adjusted, the two sides compare aligned (unadjusted, the
         relation would read 4 * p_k = 4 * p_g + -12). *)
      match
        let k = Id.of_pd (pd_of "A1") and g = Id.of_pd (pd_of "A2") in
        Locality.Balance.relation ~overlap_k:(Symmetry.has_overlap k)
          ~overlap_g:(Symmetry.has_overlap g) k g
      with
      | Some r ->
          Alcotest.(check string) "relation" "4 * p_k = 4 * p_g"
            (Format.asprintf "%a" Locality.Balance.pp_relation r)
      | None -> Alcotest.fail "no relation")

(* ------------------------------------------------------------------ *)
(* Property: descriptor region = oracle region, for random affine nests *)

let gen_program =
  let open QCheck.Gen in
  let* depth = int_range 1 3 in
  let* bounds = list_repeat depth (int_range 2 5) in
  let* coeffs = list_repeat depth (int_range 0 7) in
  let* offset = int_range 0 10 in
  let* second_ref = bool in
  let* shift = int_range 0 9 in
  let vars = List.mapi (fun k _ -> Printf.sprintf "v%d" k) bounds in
  let subscript extra =
    List.fold_left2
      (fun acc v c -> acc + (i c * Expr.var v))
      (i (Stdlib.( + ) offset extra))
      vars coeffs
  in
  let refs =
    if second_ref then [ Build.read "A" [ subscript 0 ]; Build.read "A" [ subscript shift ] ]
    else [ Build.read "A" [ subscript 0 ] ]
  in
  let body = [ Build.assign refs ] in
  let nest =
    List.fold_right2
      (fun vn b inner ->
        [ Build.do_ vn ~lo:(i 0) ~hi:(i (Stdlib.( - ) b 1)) inner ])
      (List.tl vars) (List.tl bounds) body
  in
  let outer =
    Build.doall (List.hd vars) ~lo:(i 0) ~hi:(i (Stdlib.( - ) (List.hd bounds) 1)) nest
  in
  let ph = Build.phase "G" outer in
  return
    (Build.program ~name:"gen" ~params:Assume.empty
       ~arrays:[ Build.array "A" [ i 2000 ] ]
       [ ph ])

let arb_program = QCheck.make gen_program ~print:(fun p ->
    Format.asprintf "%a" Types.pp_program p)

let oracle_equal prog ~par =
  let ph = List.hd prog.Types.phases in
  let ctx = Phase.analyze prog ph in
  let pd = Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array:"A") in
  let env = Env.empty in
  let descriptor_region =
    try Some (Region.sorted (Region.addresses env pd ~par))
    with Region.Not_rectangular _ -> None
  in
  match descriptor_region with
  | None -> false (* affine constant nests must stay rectangular *)
  | Some got ->
      let expected =
        match par with
        | None ->
            Enumerate.address_set prog env ph ~array:"A"
            |> Region.sorted
        | Some k ->
            Enumerate.iteration_addresses prog env ph ~array:"A" ~par:k
            |> List.map fst |> List.sort_uniq compare
      in
      got = expected

let prop_region_whole =
  QCheck.Test.make ~name:"descriptor region = oracle (whole phase)" ~count:150
    arb_program (fun prog -> oracle_equal prog ~par:None)

let prop_region_iteration =
  QCheck.Test.make ~name:"descriptor region = oracle (iteration 0 and 1)" ~count:150
    arb_program (fun prog ->
      oracle_equal prog ~par:(Some 0) && oracle_equal prog ~par:(Some 1))

(* The TFFT2 F3 phase itself, at several concrete sizes: the coalesced
   + unioned descriptor expands to exactly the enumerated set. *)
let test_tfft2_region_oracle () =
  Probe.with_seed 20 (fun () ->
      let pd = x_pd_final () in
      List.iter
        (fun (p, q) ->
          let env = Codes.Registry.bind tfft2 [ ("p", p); ("q", q) ] in
          let got = Region.sorted (Region.addresses env pd ~par:None) in
          let expected =
            Region.sorted
              (Enumerate.address_set fig1 env (List.hd fig1.phases) ~array:"X")
          in
          Alcotest.(check (list int))
            (Printf.sprintf "whole region p=%d q=%d" p q)
            expected got;
          (* and per iteration *)
          for it = 0 to Stdlib.( - ) (1 lsl q) 1 do
            let got = Region.sorted (Region.addresses env pd ~par:(Some it)) in
            let expected =
              Enumerate.iteration_addresses fig1 env (List.hd fig1.phases)
                ~array:"X" ~par:it
              |> List.map fst |> List.sort_uniq compare
            in
            Alcotest.(check (list int))
              (Printf.sprintf "iter %d p=%d q=%d" it p q)
              expected got
          done)
        [ (2, 1); (3, 2); (4, 2) ])

(* A richer adversarial generator: negative strides (reversed access),
   sibling sequential loops (non-perfect nesting), shifted multi-ref
   statements, two arrays. *)
let gen_stress_program =
  let open QCheck.Gen in
  let* n_par = int_range 3 7 in
  let* s1 = int_range 1 5 in
  let* inner_n = int_range 1 4 in
  let* inner_stride = int_range 1 4 in
  let* reversed = bool in
  let* shift = int_range 0 6 in
  let* sibling = bool in
  let* base = int_range 0 9 in
  let v = Expr.var and ic = Expr.int in
  let par_term =
    if reversed then
      Expr.sub (ic Stdlib.((s1 * (n_par - 1)) + base + 40))
        (Expr.mul (ic s1) (v "i"))
    else Expr.add (Expr.mul (ic s1) (v "i")) (ic base)
  in
  let idx extra =
    Expr.add par_term
      (Expr.add (Expr.mul (ic inner_stride) (v "j")) (ic extra))
  in
  let inner_body =
    [
      Build.assign
        [ Build.read "A" [ idx 0 ]; Build.read "A" [ idx shift ];
          Build.write "B" [ idx 0 ] ];
    ]
  in
  let first_loop =
    Build.do_ "j" ~lo:(ic 0) ~hi:(ic (Stdlib.( - ) inner_n 1)) inner_body
  in
  let body =
    if sibling then
      [
        first_loop;
        Build.do_ "j2" ~lo:(ic 0) ~hi:(ic 1)
          [ Build.assign [ Build.read "B" [ Expr.add par_term (v "j2") ] ] ];
      ]
    else [ first_loop ]
  in
  return
    (Build.program ~name:"stress" ~params:Assume.empty
       ~arrays:[ Build.array "A" [ ic 4000 ]; Build.array "B" [ ic 4000 ] ]
       [
         Build.phase "S"
           (Build.doall "i" ~lo:(ic 0) ~hi:(ic (Stdlib.( - ) n_par 1)) body);
       ])

let arb_stress = QCheck.make gen_stress_program ~print:(fun p ->
    Format.asprintf "%a" Types.pp_program p)

let stress_oracle prog array ~par =
  let ph = List.hd prog.Types.phases in
  let ctx = Phase.analyze prog ph in
  let pd = Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array) in
  match Region.sorted (Region.addresses Env.empty pd ~par) with
  | got ->
      let expected =
        match par with
        | None -> Region.sorted (Enumerate.address_set prog Env.empty ph ~array)
        | Some k ->
            Enumerate.iteration_addresses prog Env.empty ph ~array ~par:k
            |> List.map fst |> List.sort_uniq compare
      in
      got = expected
  | exception Region.Not_rectangular _ -> false

let prop_stress_region =
  QCheck.Test.make ~name:"stress: descriptor region = oracle" ~count:200
    arb_stress (fun prog ->
      stress_oracle prog "A" ~par:None
      && stress_oracle prog "B" ~par:None
      && stress_oracle prog "A" ~par:(Some 0)
      && stress_oracle prog "A" ~par:(Some 1)
      && stress_oracle prog "B" ~par:(Some 2))

(* ------------------------------------------------------------------ *)
(* Delta_s on interval sets against the address-by-address sweep *)

(* The sweep [Symmetry] counted overlaps with before interval sets, kept
   as the reference: one table of addresses per iteration. *)
let table_region (id : Id.t) env it =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (g : Id.group) ->
      List.iter
        (fun (r : Id.row) ->
          let rec sweep base = function
            | [] -> Hashtbl.replace tbl base ()
            | (count, stride) :: rest ->
                for k = 0 to Stdlib.( - ) count 1 do
                  sweep Stdlib.(base + (k * stride)) rest
                done
          in
          let seq =
            List.map2
              (fun a (d : Pd.dim) -> (Env.eval env a, Env.eval env d.stride))
              r.seq_alphas g.seq_dims
          in
          sweep
            Stdlib.(Env.eval env r.offset0 + (it * r.par_sign * Env.eval env r.par_stride))
            seq)
        g.rows)
    id.groups;
  tbl

(* On every probe sample of every array's ID: the interval region holds
   exactly the table's cells, and the overlap counts agree. *)
let intervals_match_tables prog =
  List.for_all
    (fun ph ->
      match Phase.analyze prog ph with
      | exception _ -> true
      | ctx ->
          List.for_all
            (fun array ->
              let id = Id.of_pd (Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array)) in
              List.for_all
                (fun k ->
                  let env = Probe.sample ctx.assume k in
                  let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
                  let ivs =
                    outcome (fun () ->
                        let r0 = Symmetry.region id env 0 and r1 = Symmetry.region id env 1 in
                        (Lattice.Iv.total r0, Lattice.Iv.(total (inter r0 r1)), r0))
                  and tables =
                    outcome (fun () -> (table_region id env 0, table_region id env 1))
                  in
                  match (ivs, tables) with
                  | Ok (n0, shared, r0), Ok (t0, t1) ->
                      n0 = Hashtbl.length t0
                      && Hashtbl.fold (fun a () ok -> ok && Lattice.Iv.mem r0 a) t0 true
                      && shared
                         = Hashtbl.fold
                             (fun a () n -> if Hashtbl.mem t1 a then Stdlib.(n + 1) else n)
                             t0 0
                  | Error a, Error b -> a = b
                  | _ -> false)
                (List.init 12 Fun.id))
            (Types.phase_arrays ph))
    prog.Types.phases

let test_intervals_registry () =
  Probe.with_seed 23 (fun () ->
      List.iter
        (fun (e : Codes.Registry.entry) ->
          Alcotest.(check bool) (e.name ^ ": intervals = tables") true
            (intervals_match_tables e.program))
        Codes.Registry.all)

let prop_intervals_fuzz =
  QCheck.Test.make ~name:"Delta_s intervals = tables (fuzz programs)" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 200))
    (fun (seed, index) ->
      Probe.with_seed 24 (fun () ->
          intervals_match_tables (Fuzz.Gen.program Fuzz.Gen.default ~seed ~index)))

let prop_intervals_stress =
  QCheck.Test.make ~name:"Delta_s intervals = tables (stress nests)" ~count:100 arb_stress
    (fun prog -> Probe.with_seed 25 (fun () -> intervals_match_tables prog))

(* Homogenization merges same-pattern PDs from two phases. *)
let test_homogenize () =
  Probe.with_seed 21 (fun () ->
      let prog =
        sym_program
          [
            Build.(
              phase "H1"
                (doall "i" ~lo:(int 0) ~hi:(int 9)
                   [ assign [ write "A" [ int 4 * var "i" ] ] ]));
            Build.(
              phase "H2"
                (doall "i" ~lo:(int 0) ~hi:(int 9)
                   [ assign [ read "A" [ (int 4 * var "i") + int 40 ] ] ]));
          ]
      in
      let pd_of name =
        let ph = List.find (fun (p : Types.phase) -> p.phase_name = name) prog.phases in
        Unionize.simplify (Pd.of_phase (Ard.of_phase (Phase.analyze prog ph)) ~array:"A")
      in
      match Unionize.homogenize (pd_of "H1") (pd_of "H2") with
      | Some merged ->
          (* single group, rows fused into one region [0,4,...,76] *)
          let g = List.hd merged.groups in
          Alcotest.(check int) "rows fused" 1 (List.length g.rows);
          let region = Region.sorted (Region.addresses Env.empty merged ~par:None) in
          Alcotest.(check int) "20 addresses" 20 (List.length region);
          Alcotest.(check int) "last" 76 (List.nth region 19)
      | None -> Alcotest.fail "expected homogenization to apply")

let test_homogenize_rejects () =
  Probe.with_seed 22 (fun () ->
      let prog =
        sym_program
          [
            Build.(
              phase "H1"
                (doall "i" ~lo:(int 0) ~hi:(int 9)
                   [ assign [ write "A" [ int 4 * var "i" ] ] ]));
            Build.(
              phase "H3"
                (doall "i" ~lo:(int 0) ~hi:(int 9)
                   [ assign [ read "A" [ int 3 * var "i" ] ] ]));
          ]
      in
      let pd_of name =
        let ph = List.find (fun (p : Types.phase) -> p.phase_name = name) prog.phases in
        Unionize.simplify (Pd.of_phase (Ard.of_phase (Phase.analyze prog ph)) ~array:"A")
      in
      Alcotest.(check bool) "different strides do not merge" true
        (Unionize.homogenize (pd_of "H1") (pd_of "H3") = None))

(* Simplification is idempotent and never changes the address set. *)
let prop_simplify_idempotent =
  QCheck.Test.make ~name:"Unionize.simplify idempotent" ~count:80 arb_program
    (fun prog ->
      let ph = List.hd prog.Types.phases in
      let ctx = Phase.analyze prog ph in
      let once = Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array:"A") in
      let twice = Unionize.simplify once in
      let expand pd =
        try Some (Region.sorted (Region.addresses Env.empty pd ~par:None))
        with Region.Not_rectangular _ -> None
      in
      match (expand once, expand twice) with
      | Some a, Some b -> a = b
      | None, None -> true
      | _ -> false)

(* The whole-array fallback: a subscript quadratic in its own index has
   no LMAD; the reference degrades to an inexact full-array descriptor
   and everything downstream stays conservative but functional. *)
let test_whole_array_fallback () =
  Probe.with_seed 23 (fun () ->
      let prog =
        Build.program ~name:"quad" ~params:Assume.empty
          ~arrays:[ Build.array "A" [ i 500 ] ]
          [
            Build.phase "Q"
              (Build.doall "x" ~lo:(i 0) ~hi:(i 9)
                 [ Build.assign [ Build.read "A" [ v "x" * v "x" ] ] ]);
          ]
      in
      let ctx = Phase.analyze prog (List.hd prog.phases) in
      let pd = Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array:"A") in
      Alcotest.(check bool) "inexact" false pd.exact;
      (* the fallback covers the whole array *)
      let region = Region.sorted (Region.addresses Env.empty pd ~par:None) in
      Alcotest.(check int) "full coverage" 500 (List.length region);
      (* and the full pipeline still runs on it *)
      let t = Core.Pipeline.run prog ~env:Env.empty ~h:4 in
      let r = Core.Pipeline.simulate t in
      Alcotest.(check bool) "simulates" true (r.par_time > 0.0))

(* Reversed sequential loop: A(c - j) swept downward normalizes to a
   positive-direction dim with a shifted offset. *)
let test_reversed_seq_dim () =
  Probe.with_seed 24 (fun () ->
      let prog =
        Build.program ~name:"rev" ~params:Assume.empty
          ~arrays:[ Build.array "A" [ i 400 ] ]
          [
            Build.phase "R"
              (Build.doall "x" ~lo:(i 0) ~hi:(i 7)
                 [
                   Build.do_ "j" ~lo:(i 0) ~hi:(i 4)
                     [
                       Build.assign
                         [ Build.read "A" [ (i 10 * v "x") + i 9 - v "j" ] ];
                     ];
                 ]);
          ]
      in
      let ctx = Phase.analyze prog (List.hd prog.phases) in
      let pd = Unionize.simplify (Pd.of_phase (Ard.of_phase ctx) ~array:"A") in
      (* region per iteration x: [10x+5 .. 10x+9] *)
      let r0 = Region.sorted (Region.addresses Env.empty pd ~par:(Some 0)) in
      Alcotest.(check (list int)) "iter 0" [ 5; 6; 7; 8; 9 ] r0;
      let g = List.hd pd.groups in
      List.iter
        (fun (row : Pd.row) ->
          List.iteri
            (fun idx s ->
              if g.par <> Some idx then
                Alcotest.(check int) "seq dims normalized positive" 1 s)
            row.signs)
        g.rows)

(* ------------------------------------------------------------------ *)
(* One derivation per site: [Phase.analyze] derives each site's steps
   once, and a pipeline run builds each site's ARD once, for lint's race
   rule and the LCG alike. *)

let ard_count () =
  Option.value ~default:0 (List.assoc_opt "descriptor.ard" (Metrics.snapshot ()).counters)

let sites_analyzed (prog : Types.program) =
  List.fold_left
    (fun n ph ->
      match Phase.analyze prog ph with
      | ctx -> Stdlib.( + ) n (List.length ctx.sites)
      | exception Phase.Invalid_phase _ -> n)
    0 prog.phases

let test_one_ard_per_site () =
  let check name prog ~env ~h =
    Probe.clear ();
    let before = ard_count () in
    ignore (Core.Pipeline.run prog ~env ~h);
    Alcotest.(check int) name (sites_analyzed prog) (Stdlib.( - ) (ard_count ()) before)
  in
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun h ->
          check (Printf.sprintf "%s H=%d" e.name h) e.program
            ~env:(e.env_of_size e.default_size) ~h)
        [ 4; 64 ])
    Codes.Registry.all;
  (* the golden fuzz programs (test_golden_fuzz) *)
  List.iter
    (fun (name, profile, count, h) ->
      for index = 0 to Stdlib.( - ) count 1 do
        let prog = Fuzz.Gen.program profile ~seed:2026 ~index in
        check (Printf.sprintf "%s#%d" name index) prog ~env:(Fuzz.Gen.midpoint_env prog) ~h
      done)
    [ ("deep", Fuzz.Gen.deep, 12, 16); ("default", Fuzz.Gen.default, 40, 4) ]

(* One derivation per run: a pipeline run analyzes each phase once
   ([phase.derive]) and derives each phase's shape once per environment
   asked ([shape.derive]): the run's own and each of lint's sampled
   environments, every one of which evaluates on these corpora. *)
let counter name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot ()).counters)

let test_one_derivation_per_run () =
  let check name (prog : Types.program) ~env ~h =
    let evaluates env =
      List.for_all
        (fun (d : Types.array_decl) -> Result.is_ok (Linearize.array_size env prog d.name))
        prog.arrays
    in
    let sampled = Core.Lint.default_envs prog in
    Alcotest.(check bool) (name ^ ": sampled environments evaluate") true
      (List.for_all evaluates sampled);
    let phases = List.length prog.phases in
    let phase0 = counter "phase.derive" and shape0 = counter "shape.derive" in
    ignore (Core.Pipeline.run prog ~env ~h);
    Alcotest.(check int) (name ^ ": phase.derive") phases
      (Stdlib.( - ) (counter "phase.derive") phase0);
    Alcotest.(check int) (name ^ ": shape.derive")
      (Stdlib.( * ) phases (Stdlib.( + ) 1 (List.length sampled)))
      (Stdlib.( - ) (counter "shape.derive") shape0)
  in
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun h ->
          check (Printf.sprintf "%s H=%d" e.name h) e.program
            ~env:(e.env_of_size e.default_size) ~h)
        [ 4; 64 ])
    Codes.Registry.all;
  List.iter
    (fun (name, profile, count, h) ->
      for index = 0 to Stdlib.( - ) count 1 do
        let prog = Fuzz.Gen.program profile ~seed:2026 ~index in
        check (Printf.sprintf "%s#%d" name index) prog ~env:(Fuzz.Gen.midpoint_env prog) ~h
      done)
    [ ("deep", Fuzz.Gen.deep, 12, 16); ("default", Fuzz.Gen.default, 40, 4) ]

(* Oracle: each stored step is the forward difference phi(v+1) - phi(v)
   the descriptors once derived per use, [affine] says whether phi is
   linear in v, and each exact ARD's count along v is still
   (phi(hi) - phi(0)) / stride + 1. *)
let test_steps_oracle () =
  let check_phase (prog : Types.program) ph =
    match Phase.analyze prog ph with
    | exception Phase.Invalid_phase _ -> ()
    | ctx ->
        List.iter
          (fun (site : Phase.site) ->
            let phi = site.phi in
            let where v = Printf.sprintf "%s: %s along %s" ph.Types.phase_name (Expr.to_string phi) v in
            List.iter2
              (fun var (st : Phase.step) ->
                let diff = Expr.subst var (v var + i 1) phi - phi in
                Alcotest.check expr (where var) diff st.stride;
                Alcotest.(check bool) (where var ^ " affine") (Expr.linear_in var phi <> None) st.affine)
              site.enclosing site.steps;
            let ard = Ard.of_site ctx site in
            if ard.exact then
              List.iter2
                (fun (l : Phase.loop_info) (d : Ard.dim) ->
                  match Phase.step site l.var with
                  | Some st when not (Expr.is_zero st.stride) ->
                      let reach = Expr.subst l.var l.hi phi - Expr.subst l.var Expr.zero phi in
                      Alcotest.check expr (where l.var ^ " alpha") ((reach / st.stride) + i 1) d.alpha
                  | _ -> ())
                ctx.loops ard.dims)
          ctx.sites
  in
  let check_program prog = List.iter (check_phase prog) prog.Types.phases in
  List.iter (fun (e : Codes.Registry.entry) -> check_program e.program) Codes.Registry.all;
  for index = 0 to 11 do
    check_program (Fuzz.Gen.program Fuzz.Gen.deep ~seed:2026 ~index)
  done;
  for index = 0 to 199 do
    check_program (Fuzz.Gen.program Fuzz.Gen.default ~seed:42 ~index)
  done

let () =
  Alcotest.run "descriptor"
    [
      ("fig2", [ Alcotest.test_case "ARDs of F3" `Quick test_fig2_ards ]);
      ( "fig3",
        [
          Alcotest.test_case "coalescing chain" `Quick test_fig3_coalesce;
          Alcotest.test_case "access descriptor union" `Quick test_fig3_union;
        ] );
      ("fig4", [ Alcotest.test_case "ID regions P=4 Q=3" `Quick test_fig4_ids ]);
      ("fig8", [ Alcotest.test_case "UL and memory gap" `Quick test_fig8_bounds ]);
      ( "fig5",
        [
          Alcotest.test_case "shifted Delta_d=17" `Quick test_fig5_shifted;
          Alcotest.test_case "reverse Delta_r=27" `Quick test_fig5_reverse;
          Alcotest.test_case "overlap Delta_s=5" `Quick test_fig5_overlap;
          Alcotest.test_case "dense no-overlap" `Quick test_no_overlap_dense;
        ] );
      ( "tfft2-phases",
        [
          Alcotest.test_case "F8 storage symmetry" `Quick test_f8_symmetry;
          Alcotest.test_case "F2 column merge" `Quick test_f2_columns;
          Alcotest.test_case "F3 workspace containment" `Quick
            test_f3_workspace_containment;
        ] );
      ("offset", [ Alcotest.test_case "adjust distance" `Quick test_offset_adjust ]);
      ( "oracle",
        [
          Alcotest.test_case "tfft2 F3 exact region" `Slow test_tfft2_region_oracle;
          QCheck_alcotest.to_alcotest prop_region_whole;
          QCheck_alcotest.to_alcotest prop_region_iteration;
          QCheck_alcotest.to_alcotest prop_simplify_idempotent;
          QCheck_alcotest.to_alcotest prop_stress_region;
          Alcotest.test_case "Delta_s intervals (registry)" `Quick test_intervals_registry;
          QCheck_alcotest.to_alcotest prop_intervals_fuzz;
          QCheck_alcotest.to_alcotest prop_intervals_stress;
        ] );
      ( "fallbacks",
        [
          Alcotest.test_case "whole-array descriptor" `Quick
            test_whole_array_fallback;
          Alcotest.test_case "reversed seq loop" `Quick test_reversed_seq_dim;
        ] );
      ( "homogenize",
        [
          Alcotest.test_case "merges shifted phases" `Quick test_homogenize;
          Alcotest.test_case "rejects mismatched strides" `Quick
            test_homogenize_rejects;
        ] );
      ( "per-site",
        [
          Alcotest.test_case "descriptor.ard = sites analyzed" `Quick test_one_ard_per_site;
          Alcotest.test_case "one Phase.t and Shape per run" `Quick
            test_one_derivation_per_run;
          Alcotest.test_case "steps = forward differences" `Quick test_steps_oracle;
        ] );
    ]
