(* Property layer guarding the descriptor algebra and the pipeline.

   Every algebraic operation (stride coalescing, row union, full
   simplification, hull bounds, homogenization) is checked
   against the brute-force enumeration oracle (Ir.Enumerate expands the
   loop nest reference by reference), on randomly generated affine
   nests.  Two meta-properties pin the new memoization layer: results
   are identical cold (caches flushed) and warm, and the whole pipeline
   is deterministic - running it twice under the same probe seed yields
   byte-identical reports.  Finally parse/unparse is a structural
   round trip. *)

open Symbolic
open Ir
open Descriptor

let count = 200

(* ------------------------------------------------------------------ *)
(* Reproducibility: every qcheck test runs from a deterministic seed,
   overridable with QCHECK_SEED=<int>, and every counterexample printer
   appends the seed plus a copy-pasteable dsmloc repro command, so a CI
   failure can be replayed (and the offending program analyzed) without
   re-running the suite blind. *)

let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 730129

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

let repro_footer =
  Printf.sprintf
    "# to replay this run:   QCHECK_SEED=%d dune exec test/test_properties.exe\n\
     # to analyze directly:  save the program above as repro.dsm, then:\n\
     #   dune exec bin/dsmloc.exe -- file repro.dsm --procs 4"
    qcheck_seed

let print_counterexample p =
  Printf.sprintf "%s\n%s" (Frontend.Unparse.to_string p) repro_footer

(* ------------------------------------------------------------------ *)
(* Generators: constant-bound affine nests (always rectangular, so the
   descriptor expansion is defined and the oracle is exact). *)

let i = Expr.int
let v = Expr.var

let gen_affine_program =
  let open QCheck.Gen in
  let* depth = int_range 1 3 in
  let* bounds = list_repeat depth (int_range 2 5) in
  let* coeffs = list_repeat depth (int_range 0 7) in
  let* offset = int_range 0 10 in
  let* second_ref = bool in
  let* shift = int_range 0 9 in
  let* with_write = bool in
  let vars = List.mapi (fun k _ -> Printf.sprintf "v%d" k) bounds in
  let subscript extra =
    List.fold_left2
      (fun acc vn c -> Expr.add acc (Expr.mul (i c) (v vn)))
      (i (offset + extra))
      vars coeffs
  in
  let refs =
    (if second_ref then
       [ Build.read "A" [ subscript 0 ]; Build.read "A" [ subscript shift ] ]
     else [ Build.read "A" [ subscript 0 ] ])
    @ if with_write then [ Build.write "A" [ subscript 0 ] ] else []
  in
  let body = [ Build.assign refs ] in
  let nest =
    List.fold_right2
      (fun vn b inner -> [ Build.do_ vn ~lo:(i 0) ~hi:(i (b - 1)) inner ])
      (List.tl vars) (List.tl bounds) body
  in
  let outer =
    Build.doall (List.hd vars) ~lo:(i 0) ~hi:(i (List.hd bounds - 1)) nest
  in
  return
    (Build.program ~name:"gen" ~params:Assume.empty
       ~arrays:[ Build.array "A" [ i 2000 ] ]
       [ Build.phase "G" outer ])

let arb_affine = QCheck.make gen_affine_program ~print:print_counterexample

(* Two phases over the same array with the same stride and a shifted
   offset: the shape Unionize.homogenize is specified for. *)
let gen_shifted_pair =
  let open QCheck.Gen in
  let* n = int_range 3 8 in
  let* stride = int_range 1 4 in
  let* steps = int_range 0 6 in
  let shift = stride * steps in
  let idx extra = Expr.add (Expr.mul (i stride) (v "x")) (i extra) in
  return
    (Build.program ~name:"pair" ~params:Assume.empty
       ~arrays:[ Build.array "A" [ i 500 ] ]
       [
         Build.phase "P1"
           (Build.doall "x" ~lo:(i 0) ~hi:(i (n - 1))
              [ Build.assign [ Build.write "A" [ idx 0 ] ] ]);
         Build.phase "P2"
           (Build.doall "x" ~lo:(i 0) ~hi:(i (n - 1))
              [ Build.assign [ Build.read "A" [ idx shift ] ] ]);
       ])

let arb_shifted_pair = QCheck.make gen_shifted_pair ~print:print_counterexample

(* ------------------------------------------------------------------ *)
(* Oracles *)

let pd_of prog k =
  let ph = List.nth prog.Types.phases k in
  Pd.of_phase (Ard.of_phase (Phase.analyze prog ph)) ~array:"A"

let expand pd ~par =
  try Some (Region.sorted (Region.addresses Env.empty pd ~par))
  with Region.Not_rectangular _ -> None

let oracle prog k ~par =
  let ph = List.nth prog.Types.phases k in
  match par with
  | None -> Region.sorted (Enumerate.address_set prog Env.empty ph ~array:"A")
  | Some it ->
      Enumerate.iteration_addresses prog Env.empty ph ~array:"A" ~par:it
      |> List.map fst |> List.sort_uniq compare

(* Each transform of the simplification chain must leave the denoted
   address set - whole phase and per iteration - untouched. *)
let preserves_region transform prog =
  Probe.with_seed 501 (fun () ->
      let pd = transform (pd_of prog 0) in
      expand pd ~par:None = Some (oracle prog 0 ~par:None)
      && expand pd ~par:(Some 0) = Some (oracle prog 0 ~par:(Some 0))
      && expand pd ~par:(Some 1) = Some (oracle prog 0 ~par:(Some 1)))

let prop_coalesce_oracle =
  QCheck.Test.make ~name:"Coalesce.pd preserves the oracle region" ~count
    arb_affine
    (preserves_region Coalesce.pd)

let prop_unionize_rows_oracle =
  QCheck.Test.make ~name:"Unionize.rows preserves the oracle region" ~count
    arb_affine
    (preserves_region (fun pd -> Unionize.rows (Coalesce.pd pd)))

let prop_simplify_oracle =
  QCheck.Test.make ~name:"Unionize.simplify preserves the oracle region" ~count
    arb_affine
    (preserves_region Unionize.simplify)

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"Unionize.simplify is idempotent on regions" ~count
    arb_affine (fun prog ->
      Probe.with_seed 502 (fun () ->
          let once = Unionize.simplify (pd_of prog 0) in
          let twice = Unionize.simplify once in
          expand once ~par:None = expand twice ~par:None
          && expand once ~par:(Some 0) = expand twice ~par:(Some 0)))

(* A simplified PD's closed-form hull is the oracle's, and its smallest
   row offset is the smallest address touched. *)
let prop_bounds_oracle =
  QCheck.Test.make ~name:"Setalg.bounds = oracle hull, lo = least row offset"
    ~count arb_affine (fun prog ->
      Probe.with_seed 503 (fun () ->
          let pd = Unionize.simplify (pd_of prog 0) in
          match oracle prog 0 ~par:None with
          | [] -> false
          | lo :: _ as addrs ->
              let offsets =
                List.concat_map
                  (fun (g : Pd.group) ->
                    List.map
                      (fun (r : Pd.row) -> Env.eval Env.empty r.offset)
                      g.rows)
                  pd.groups
              in
              Setalg.bounds Env.empty pd ~par:None
              = Some (lo, List.nth addrs (List.length addrs - 1))
              && List.fold_left min max_int offsets = lo))

let prop_homogenize_union =
  QCheck.Test.make ~name:"Unionize.homogenize denotes the union of regions"
    ~count arb_shifted_pair (fun prog ->
      Probe.with_seed 504 (fun () ->
          let pd1 = Unionize.simplify (pd_of prog 0) in
          let pd2 = Unionize.simplify (pd_of prog 1) in
          match Unionize.homogenize pd1 pd2 with
          | None ->
              (* homogenization may conservatively decline; it must not
                 decline the trivial unshifted case *)
              oracle prog 0 ~par:None <> oracle prog 1 ~par:None
          | Some merged -> (
              match expand merged ~par:None with
              | None -> false
              | Some got ->
                  got
                  = List.sort_uniq compare
                      (oracle prog 0 ~par:None @ oracle prog 1 ~par:None))))

(* Memo coherence: flushing every cache must not change any answer - a
   cold run, a warm run reading the first run's stores, and a second
   cold run agree.  All three share one probe scope, since
   [Probe.with_seed] clears every store on entry and exit. *)
let prop_memo_coherence =
  QCheck.Test.make ~name:"cold and warm caches give identical results" ~count
    arb_affine (fun prog ->
      let compute () =
        let pd = Unionize.simplify (pd_of prog 0) in
        (expand pd ~par:None, expand pd ~par:(Some 0))
      in
      Probe.with_seed 506 (fun () ->
          let cold = compute () in
          let warm = compute () in
          Symbolic.Artifact.clear_all ();
          let cold2 = compute () in
          cold = warm && cold = cold2))

(* ------------------------------------------------------------------ *)
(* Interning: the hash-consed [Expr.equal]/[Expr.compare] must agree
   with the pure structural reference implementations on arbitrary
   expressions - both within one intern generation (where equality is a
   physical check) and across an [intern_reset] (where the structural
   fallback carries it).  Expressions are generated as construction
   recipes so the same term can be rebuilt on either side of a reset. *)

type recipe =
  | RInt of int
  | RVar of string
  | RAdd of recipe * recipe
  | RSub of recipe * recipe
  | RMul of recipe * recipe
  | RPow2 of string * int  (* 2^(v + k): the shape the analyses build *)
  | RFloor of recipe * recipe
  | RCeil of recipe * recipe
  | RDiv of recipe * recipe

let rec build_recipe r =
  let nonzero r =
    let e = build_recipe r in
    if Expr.is_zero e then Expr.one else e
  in
  match r with
  | RInt n -> i n
  | RVar s -> v s
  | RAdd (a, b) -> Expr.add (build_recipe a) (build_recipe b)
  | RSub (a, b) -> Expr.sub (build_recipe a) (build_recipe b)
  | RMul (a, b) -> Expr.mul (build_recipe a) (build_recipe b)
  | RPow2 (s, k) -> Expr.pow2 (Expr.add (v s) (i k))
  | RFloor (a, b) -> Expr.floor_div (build_recipe a) (nonzero b)
  | RCeil (a, b) -> Expr.ceil_div (build_recipe a) (nonzero b)
  | RDiv (a, b) -> Expr.div (build_recipe a) (nonzero b)

let gen_recipe =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> RInt n) (int_range (-8) 8);
        map (fun s -> RVar s) (oneofl [ "x"; "y"; "z" ]);
        map2 (fun s k -> RPow2 (s, k)) (oneofl [ "x"; "y" ]) (int_range 0 3);
      ]
  in
  (* fuel is kept small ([0..8], halving per level): multiplying sums
     multiplies monomial counts, so unbounded towers of RMul-over-RAdd
     make normalisation exponentially expensive *)
  int_range 0 8
  >>= fix (fun self n ->
          if n <= 0 then leaf
          else
            let sub = self (n / 2) in
            frequency
              [
                (2, leaf);
                (3, map2 (fun a b -> RAdd (a, b)) sub sub);
                (2, map2 (fun a b -> RSub (a, b)) sub sub);
                (3, map2 (fun a b -> RMul (a, b)) sub sub);
                (1, map2 (fun a b -> RFloor (a, b)) sub sub);
                (1, map2 (fun a b -> RCeil (a, b)) sub sub);
                (1, map2 (fun a b -> RDiv (a, b)) sub sub);
              ])

let arb_recipe_pair =
  QCheck.make
    QCheck.Gen.(pair gen_recipe gen_recipe)
    ~print:(fun (a, b) ->
      Format.asprintf "%a / %a@.%s" Expr.pp (build_recipe a) Expr.pp
        (build_recipe b) repro_footer)

let prop_intern_agrees_structural =
  QCheck.Test.make ~name:"interned equal/compare = structural reference"
    ~count arb_recipe_pair (fun (r1, r2) ->
      let a = build_recipe r1 and b = build_recipe r2 in
      Expr.equal a b = Expr.structural_equal a b
      && Expr.compare a b = Expr.structural_compare a b
      && Expr.compare a b = -Expr.compare b a
      && (Expr.compare a b = 0) = Expr.equal a b
      && ((not (Expr.equal a b)) || Expr.digest a = Expr.digest b))

let prop_intern_reset_coherent =
  QCheck.Test.make ~name:"equal/compare/digest stable across intern_reset"
    ~count arb_recipe_pair (fun (r1, r2) ->
      let a = build_recipe r1 and a2 = build_recipe r2 in
      let digest_a = Expr.digest a in
      let order = Expr.compare a a2 in
      Expr.intern_reset ();
      let b = build_recipe r1 and b2 = build_recipe r2 in
      (* the same recipe denotes the same interned term, just in a new
         generation: equality, order and digest must all carry over,
         including between a pre-reset and a post-reset value *)
      Expr.equal a b
      && Expr.compare a b = 0
      && Expr.structural_equal a b
      && Expr.digest b = digest_a
      && Expr.compare b b2 = order
      && Expr.compare a b2 = order
      && Expr.compare b a2 = order)

(* Dedicated cold-vs-warm run over the full pipeline: the first run
   starts from empty artifact stores, the second answers from the warm
   stores the first left in the same probe scope ([Probe.with_seed]
   clears every store on entry and exit) - the rendered reports must be
   byte-identical. *)
let report_of_cold_warm t = Format.asprintf "%a" Core.Pipeline.report t

let prop_cold_warm_report =
  QCheck.Test.make ~name:"cold and warm pipeline reports byte-identical"
    ~count arb_affine (fun prog ->
      let once () =
        report_of_cold_warm (Core.Pipeline.run prog ~env:Env.empty ~h:4)
      in
      Probe.with_seed 509 (fun () ->
          let cold = once () in
          let warm = once () in
          cold = warm))

(* ------------------------------------------------------------------ *)
(* Frontend round trip and pipeline determinism *)

(* The parser rebalances affine sums, so structural equality is too
   strong for generated programs; the trip must instead be a fixed
   point of unparsing and leave the denoted address set untouched. *)
let prop_parse_unparse =
  QCheck.Test.make ~name:"parse (unparse p) = p (up to normalisation)" ~count
    arb_affine (fun prog ->
      let text = Frontend.Unparse.to_string prog in
      match Frontend.Parse.program text with
      | exception Frontend.Parse.Error _ -> false
      | parsed ->
          Frontend.Unparse.to_string parsed = text
          && oracle parsed 0 ~par:None = oracle prog 0 ~par:None)

let report_of t = Format.asprintf "%a" Core.Pipeline.report t

let prop_pipeline_deterministic =
  QCheck.Test.make ~name:"Pipeline.run twice = identical report" ~count
    arb_affine (fun prog ->
      let once () =
        Probe.with_seed 507 (fun () ->
            report_of (Core.Pipeline.run prog ~env:Env.empty ~h:4))
      in
      once () = once ())

(* ------------------------------------------------------------------ *)
(* The same two guarantees over every shipped surface program: the
   corpus exercises pow2 parameters, subroutines, repeat loops and
   multi-array phases that the generators above do not reach. *)

let samples_dir =
  let rec up dir =
    let candidate = Filename.concat dir "examples/programs" in
    if Sys.file_exists candidate && Sys.is_directory candidate then candidate
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then failwith "examples/programs not found"
      else up parent
  in
  up (Sys.getcwd ())

let sample_files () =
  Sys.readdir samples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dsm")
  |> List.sort compare

(* Midpoint bindings for each declared parameter (the dsmloc `file`
   command's default environment). *)
let midpoint_env (prog : Types.program) =
  List.fold_left
    (fun env (vn, d) ->
      match d with
      | Assume.Int_range (lo, hi) -> Env.add vn ((lo + hi) / 2) env
      | Assume.Pow2_of w -> Env.add vn (1 lsl Env.find env w) env
      | Assume.Expr_range _ -> env)
    Env.empty
    (Assume.to_list prog.params)

let test_samples_roundtrip () =
  List.iter
    (fun f ->
      let path = Filename.concat samples_dir f in
      let prog = Frontend.Parse.program_file path in
      match Frontend.Parse.program (Frontend.Unparse.to_string prog) with
      | parsed -> Alcotest.(check bool) (f ^ " roundtrips") true (parsed = prog)
      | exception Frontend.Parse.Error { line; message } ->
          Alcotest.fail (Printf.sprintf "%s: line %d: %s" f line message))
    (sample_files ())

let test_samples_deterministic () =
  List.iter
    (fun f ->
      let path = Filename.concat samples_dir f in
      let prog = Frontend.Parse.program_file path in
      let env = midpoint_env prog in
      let once () =
        Probe.with_seed 508 (fun () ->
            report_of (Core.Pipeline.run prog ~env ~h:4))
      in
      Alcotest.(check bool) (f ^ " deterministic") true (once () = once ()))
    (sample_files ())

let () =
  Alcotest.run "properties"
    [
      ( "descriptor-algebra",
        List.map to_alcotest
          [
            prop_coalesce_oracle;
            prop_unionize_rows_oracle;
            prop_simplify_oracle;
            prop_simplify_idempotent;
            prop_bounds_oracle;
            prop_homogenize_union;
          ] );
      ( "caching",
        [
          to_alcotest prop_memo_coherence;
          to_alcotest prop_cold_warm_report;
        ] );
      ( "interning",
        List.map to_alcotest
          [ prop_intern_agrees_structural; prop_intern_reset_coherent ] );
      ( "frontend",
        [
          to_alcotest prop_parse_unparse;
          Alcotest.test_case "all samples roundtrip" `Quick
            test_samples_roundtrip;
        ] );
      ( "pipeline",
        [
          to_alcotest prop_pipeline_deterministic;
          Alcotest.test_case "all samples deterministic" `Slow
            test_samples_deterministic;
        ] );
    ]
