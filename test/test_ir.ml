(* Tests for the loop-nest IR: builder, normalization, linearization,
   phase analysis, the enumeration oracle and privatizability. *)

open Symbolic
open Ir

let expr = Alcotest.testable Expr.pp Expr.equal

let v = Expr.var
let i = Expr.int

(* The paper's Figure 1: phase F3 of TFFT2. *)
let tfft2_params =
  Assume.of_list
    [
      ("p", Assume.Int_range (2, 6));
      ("q", Assume.Int_range (1, 5));
      ("P", Assume.Pow2_of "p");
      ("Q", Assume.Pow2_of "q");
    ]

let phase_f3 =
  Build.(
    phase "F3"
      (doall "I" ~lo:(int 0) ~hi:(var "Q" - int 1)
         [
           do_ "L" ~lo:(int 1) ~hi:(var "p")
             [
               do_ "J" ~lo:(int 0) ~hi:((var "P" * pow2 (int 0 - var "L")) - int 1)
                 [
                   do_ "K" ~lo:(int 0) ~hi:(pow2 (var "L" - int 1) - int 1)
                     [
                       assign
                         [
                           read "X"
                             [ (int 2 * var "P" * var "I")
                               + (pow2 (var "L" - int 1) * var "J")
                               + var "K" ];
                           read "X"
                             [ (int 2 * var "P" * var "I")
                               + (pow2 (var "L" - int 1) * var "J")
                               + var "K" + (var "P" / int 2) ];
                           write "X"
                             [ (int 2 * var "P" * var "I")
                               + (pow2 (var "L" - int 1) * var "J")
                               + var "K" ];
                         ];
                     ];
                 ];
             ];
         ]))

let tfft2_f3_program =
  Build.program ~name:"tfft2-f3" ~params:tfft2_params
    ~arrays:[ Build.array "X" [ Expr.mul (Expr.int 2) (Expr.mul (v "P") (v "Q")) ] ]
    [ phase_f3 ]

(* ------------------------------------------------------------------ *)

let test_normalize () =
  (* do L = 1 to p  ==>  do L = 0 to p-1 with L := 1 + L in the body *)
  let ph = Normalize.phase phase_f3 in
  match ph.nest.body with
  | [ Loop l ] ->
      Alcotest.(check expr) "lo" Expr.zero l.lo;
      Alcotest.(check expr) "hi" Expr.(sub (v "p") (i 1)) l.hi;
      (* K loop bound becomes 2^((L+1)-1) - 1 = 2^L - 1 *)
      (match l.body with
      | [ Loop j ] -> (
          match j.body with
          | [ Loop k ] ->
              Alcotest.(check expr) "K hi after subst"
                Expr.(sub (pow2 (v "L")) (i 1))
                k.hi
          | _ -> Alcotest.fail "expected K loop")
      | _ -> Alcotest.fail "expected J loop")
  | _ -> Alcotest.fail "expected L loop"

let test_normalize_step () =
  (* do v = 4 to 20 step 3 ==> 0..5, body index 4 + 3v *)
  let l =
    match Build.(do_ "v" ~lo:(int 4) ~hi:(int 20) ~step:(int 3)
                    [ assign [ read "A" [ var "v" ] ] ])
    with
    | Loop l -> l
    | _ -> assert false
  in
  let n = Normalize.loop l in
  Alcotest.(check expr) "hi" (i 5) n.hi;
  match n.body with
  | [ Assign a ] ->
      Alcotest.(check expr) "index expr"
        Expr.(add (i 4) (mul (i 3) (v "v")))
        (List.hd (List.hd a.refs).index)
  | _ -> Alcotest.fail "expected assign"

let test_linearize () =
  let addr =
    Linearize.address ~dims:[ i 10; i 20; i 30 ] [ v "a"; v "b"; v "c" ]
  in
  Alcotest.(check expr) "column major"
    Expr.(add (v "a") (mul (i 10) (add (v "b") (mul (i 20) (v "c")))))
    addr;
  Alcotest.(check expr) "size" (i 6000) (Linearize.size ~dims:[ i 10; i 20; i 30 ]);
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Linearize.address: rank mismatch") (fun () ->
      ignore (Linearize.address ~dims:[ i 10 ] [ v "a"; v "b" ]))

let test_phase_analyze () =
  let t = Phase.analyze tfft2_f3_program phase_f3 in
  Alcotest.(check int) "4 loops" 4 (List.length t.loops);
  Alcotest.(check int) "3 sites" 3 (List.length t.sites);
  (match t.par with
  | Some l ->
      Alcotest.(check string) "parallel var" "I" l.var;
      Alcotest.(check expr) "par count" (v "Q") l.count
  | None -> Alcotest.fail "no parallel loop");
  Alcotest.(check int) "I position" 0 (Phase.loop_index t "I");
  Alcotest.(check int) "K position" 3 (Phase.loop_index t "K");
  let s = List.hd t.sites in
  Alcotest.(check (list string)) "enclosing" [ "I"; "L"; "J"; "K" ] s.enclosing

let test_phase_two_parallel () =
  let bad =
    Build.(
      phase "bad"
        (doall "I" ~lo:(int 0) ~hi:(int 7)
           [ doall "J" ~lo:(int 0) ~hi:(int 7) [ assign [ read "X" [ var "J" ] ] ] ]))
  in
  let prog =
    Build.program ~name:"bad" ~params:Assume.empty
      ~arrays:[ Build.array "X" [ i 8 ] ]
      [ bad ]
  in
  Alcotest.check_raises "two parallel loops"
    (Phase.Invalid_phase "bad: more than one parallel loop") (fun () ->
      ignore (Phase.analyze prog bad))

(* Enumerate the TFFT2 F3 accesses for P=4, Q=2 and compare to a direct
   transliteration of the Fortran loop nest. *)
let test_enumerate_tfft2 () =
  let env = Env.of_list [ ("p", 2); ("q", 1); ("P", 4); ("Q", 2) ] in
  let expected = ref [] in
  for iI = 0 to 1 do
    for l = 1 to 2 do
      for j = 0 to (4 * 1 lsl 0 * 1 lsl l / (1 lsl l) / (1 lsl l)) - 1 do
        (* J upper bound: P * 2^-L - 1 *)
        ignore j
      done
    done;
    ignore iI
  done;
  (* Hand-roll exactly: *)
  let p_param = 4 in
  for iI = 0 to 1 do
    for l = 1 to 2 do
      for j = 0 to (p_param / (1 lsl l)) - 1 do
        for k = 0 to (1 lsl (l - 1)) - 1 do
          let base = (2 * p_param * iI) + ((1 lsl (l - 1)) * j) + k in
          expected := (base + (p_param / 2), Types.Read) :: (base, Types.Read)
                      :: (base, Types.Write) :: !expected
        done
      done
    done
  done;
  let expected =
    List.sort compare (List.map (fun (a, k) -> (a, k)) !expected)
  in
  let got = List.sort compare (Enumerate.addresses tfft2_f3_program env phase_f3 ~array:"X") in
  Alcotest.(check int) "event count" (List.length expected) (List.length got);
  Alcotest.(check bool) "same multiset" true (expected = got)

let test_enumerate_iteration () =
  let env = Env.of_list [ ("p", 2); ("q", 1); ("P", 4); ("Q", 2) ] in
  let it0 =
    Enumerate.iteration_addresses tfft2_f3_program env phase_f3 ~array:"X" ~par:0
  in
  let addrs = List.sort_uniq compare (List.map fst it0) in
  (* Iteration 0 touches [0..3]: 2^(L-1)J + K spans 0..1 plus offset P/2=2. *)
  Alcotest.(check (list int)) "iter 0 footprint" [ 0; 1; 2; 3 ] addrs;
  let it1 =
    Enumerate.iteration_addresses tfft2_f3_program env phase_f3 ~array:"X" ~par:1
  in
  let addrs1 = List.sort_uniq compare (List.map fst it1) in
  Alcotest.(check (list int)) "iter 1 footprint" [ 8; 9; 10; 11 ] addrs1

(* ------------------------------------------------------------------ *)
(* Liveness / privatizability *)

(* Two phases over a work array W: F1 writes then reads W per iteration
   (classic privatizable workspace), F2 overwrites W entirely. *)
let priv_params = Assume.of_list [ ("N", Assume.Int_range (4, 16)) ]

let priv_f1 =
  Build.(
    phase "F1"
      (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
         [
           assign [ write "W" [ var "i" ]; read "A" [ var "i" ] ];
           assign [ read "W" [ var "i" ]; write "B" [ var "i" ] ];
         ]))

let priv_f2 =
  Build.(
    phase "F2"
      (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
         [ assign [ write "W" [ var "i" ] ] ]))

let priv_prog =
  Build.program ~name:"priv" ~params:priv_params
    ~arrays:[ Build.array "W" [ v "N" ]; Build.array "A" [ v "N" ]; Build.array "B" [ v "N" ] ]
    [ priv_f1; priv_f2 ]

let test_privatizable () =
  let attr = Liveness.attr priv_prog 0 ~array:"W" in
  Alcotest.(check string) "W privatizable in F1" "P" (Liveness.attr_to_string attr);
  let attr_a = Liveness.attr priv_prog 0 ~array:"A" in
  Alcotest.(check string) "A read-only" "R" (Liveness.attr_to_string attr_a);
  (* B is written and never overwritten: it survives to program exit,
     i.e. it is an output - live, hence W rather than P. *)
  let attr_b = Liveness.attr priv_prog 0 ~array:"B" in
  Alcotest.(check string) "B is a live-out write" "W"
    (Liveness.attr_to_string attr_b)

(* Same, but F2 READS W first: now W is live after F1. *)
let live_f2 =
  Build.(
    phase "F2"
      (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
         [ assign [ read "W" [ var "i" ]; write "C" [ var "i" ] ] ]))

let live_prog =
  Build.program ~name:"live" ~params:priv_params
    ~arrays:[ Build.array "W" [ v "N" ]; Build.array "A" [ v "N" ];
              Build.array "B" [ v "N" ]; Build.array "C" [ v "N" ] ]
    [ priv_f1; live_f2 ]

let test_live_not_privatizable () =
  let attr = Liveness.attr live_prog 0 ~array:"W" in
  Alcotest.(check string) "W live after F1" "R/W" (Liveness.attr_to_string attr)

(* Upward-exposed read inside the phase: not privatizable either. *)
let exposed_f1 =
  Build.(
    phase "F1"
      (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
         [
           assign [ read "W" [ var "i" ]; write "B" [ var "i" ] ];
           assign [ write "W" [ var "i" ] ];
         ]))

let exposed_prog =
  Build.program ~name:"exposed" ~params:priv_params
    ~arrays:[ Build.array "W" [ v "N" ]; Build.array "B" [ v "N" ] ]
    [ exposed_f1; priv_f2 ]

let test_exposed_read () =
  let attr = Liveness.attr exposed_prog 0 ~array:"W" in
  Alcotest.(check string) "read before write" "R/W" (Liveness.attr_to_string attr)

(* Repetition wraps liveness around: F1 writes W, F2 reads W, and with
   repeats=true the value written in F2's... F1's W is read by F2 so W
   is live after F1 regardless; but B (written in F1, read by nobody)
   stays dead even around the back edge. *)
let test_repeats_wrap () =
  let prog = { live_prog with repeats = true } in
  Alcotest.(check string) "wrap: W live" "R/W"
    (Liveness.attr_to_string (Liveness.attr prog 0 ~array:"W"));
  (* C is written in F2 and never read, even on wrap: P. *)
  Alcotest.(check string) "wrap: C dead" "P"
    (Liveness.attr_to_string (Liveness.attr prog 1 ~array:"C"))

(* ------------------------------------------------------------------ *)
(* Inter-procedural inlining with reshaping *)

let test_inline_reshape () =
  let open Inline in
  let nv = Expr.var "N" in
  (* subroutine scale(A(N, 2)): doall r: A(r, 0) = A(r, 1) - the callee
     views its dummy as an N x 2 matrix *)
  let sub =
    {
      sub_name = "scale";
      formals = [ Build.array "A" [ nv; Expr.int 2 ] ];
      body =
        [
          Build.(
            phase "SCALE"
              (doall "r" ~lo:(int 0) ~hi:(nv - int 1)
                 [
                   assign
                     [
                       read "A" [ var "r"; int 1 ];
                       write "A" [ var "r"; int 0 ];
                     ];
                 ]));
        ];
    }
  in
  (* caller: G is a flat 4N vector; call scale on the first and second
     halves - two different sections, reshaped to N x 2 *)
  let prog =
    program_with_calls ~name:"ipc"
      ~params:(Assume.of_list [ ("N", Assume.Int_range (4, 16)) ])
      ~arrays:[ Build.array "G" [ Expr.mul (Expr.int 4) nv ] ]
      [
        `Call { sub; bindings = [ ("A", { target = "G"; base = Expr.zero }) ]; tag = "LO" };
        `Call
          {
            sub;
            bindings =
              [ ("A", { target = "G"; base = Expr.mul (Expr.int 2) nv }) ];
            tag = "HI";
          };
      ]
  in
  Alcotest.(check int) "two inlined phases" 2 (List.length prog.phases);
  Alcotest.(check (list string)) "names" [ "LO_SCALE"; "HI_SCALE" ]
    (List.map (fun (p : Types.phase) -> p.phase_name) prog.phases);
  (* semantics: LO reads G[N..2N) writes G[0..N); HI shifted by 2N *)
  let env = Env.of_list [ ("N", 4) ] in
  let lo = List.hd prog.phases in
  let reads =
    Enumerate.addresses prog env lo ~array:"G"
    |> List.filter (fun (_, a) -> a = Types.Read)
    |> List.map fst |> List.sort compare
  in
  Alcotest.(check (list int)) "LO reads column 1" [ 4; 5; 6; 7 ] reads;
  let writes =
    Enumerate.addresses prog env lo ~array:"G"
    |> List.filter (fun (_, a) -> a = Types.Write)
    |> List.map fst |> List.sort compare
  in
  Alcotest.(check (list int)) "LO writes column 0" [ 0; 1; 2; 3 ] writes;
  let hi = List.nth prog.phases 1 in
  let hi_all =
    Enumerate.addresses prog env hi ~array:"G" |> List.map fst |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "HI section" [ 8; 9; 10; 11; 12; 13; 14; 15 ] hi_all

let test_inline_errors () =
  let open Inline in
  let sub = { sub_name = "s"; formals = [ Build.array "A" [ Expr.int 4 ] ]; body = [] } in
  Alcotest.check_raises "unbound formal"
    (Bad_call "undeclared actual Z")
    (fun () ->
      ignore
        (program_with_calls ~name:"x" ~params:Assume.empty
           ~arrays:[ Build.array "G" [ Expr.int 16 ] ]
           [ `Call { sub; bindings = [ ("A", { target = "Z"; base = Expr.zero }) ]; tag = "T" } ]))

(* ------------------------------------------------------------------ *)
(* Automatic parallelization (the Polaris stand-in) *)

let strip_markings (prog : Types.program) : Types.program =
  let rec clear (l : Types.loop) =
    {
      l with
      parallel = false;
      body =
        List.map
          (function
            | Types.Loop i -> Types.Loop (clear i)
            | Types.Assign a -> Types.Assign a)
          l.body;
    }
  in
  {
    prog with
    phases =
      List.map
        (fun (ph : Types.phase) -> { ph with nest = clear ph.nest })
        prog.phases;
  }

let par_vars (prog : Types.program) =
  List.map
    (fun ph ->
      let ctx = Phase.analyze prog ph in
      Option.map (fun (l : Phase.loop_info) -> l.var) ctx.par)
    prog.phases

let test_autopar_recovers_markings () =
  (* Stripping the hand markings and re-deriving them restores the same
     parallel loop in every phase of every benchmark. *)
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let stripped = strip_markings e.program in
      let marked = Autopar.mark stripped in
      (* every hand-marked parallel loop must be recovered exactly; a
         hand-sequential phase may legitimately gain parallelism (e.g.
         a read-only scan) *)
      List.iter2
        (fun original recovered ->
          match original with
          | Some v ->
              Alcotest.(check (option string))
                (e.name ^ " recovers " ^ v)
                (Some v) recovered
          | None -> ())
        (par_vars e.program) (par_vars marked))
    Codes.Registry.all

let test_autopar_rejects_recurrence () =
  (* A genuine loop-carried flow dependence must not be parallelized at
     that level. *)
  let prog =
    Build.program ~name:"rec" ~params:priv_params
      ~arrays:[ Build.array "A" [ Expr.mul (v "N") (v "N") ] ]
      [
        Build.(
          phase "SCAN"
            (do_ "j" ~lo:(int 0) ~hi:(var "N" - int 1)
               [
                 do_ "i" ~lo:(int 1) ~hi:(var "N" - int 1)
                   [
                     assign
                       [
                         read "A" [ var "i" - int 1 + (var "N" * var "j") ];
                         write "A" [ var "i" + (var "N" * var "j") ];
                       ];
                   ];
               ]));
      ]
  in
  let marked = Autopar.mark prog in
  (* the outer j loop is independent (disjoint columns); the inner scan
     is not - autopar must pick j *)
  Alcotest.(check (list (option string))) "j chosen" [ Some "j" ] (par_vars marked);
  (* and with the outer loop removed, nothing is parallelizable *)
  let inner_only =
    Build.program ~name:"rec2" ~params:priv_params
      ~arrays:[ Build.array "A" [ v "N" ] ]
      [
        Build.(
          phase "SCAN"
            (do_ "i" ~lo:(int 1) ~hi:(var "N" - int 1)
               [
                 assign
                   [ read "A" [ var "i" - int 1 ]; write "A" [ var "i" ] ];
               ]));
      ]
  in
  let marked2 = Autopar.mark inner_only in
  Alcotest.(check (list (option string))) "nothing parallel" [ None ]
    (par_vars marked2)

let test_autopar_reduction_blocked () =
  (* All iterations writing one accumulator cell: blocked (no reduction
     recognition). *)
  let prog =
    Build.program ~name:"red" ~params:priv_params
      ~arrays:[ Build.array "A" [ v "N" ]; Build.array "S" [ i 1 ] ]
      [
        Build.(
          phase "SUM"
            (do_ "i" ~lo:(int 0) ~hi:(var "N" - int 1)
               [
                 assign
                   [ read "A" [ var "i" ]; read "S" [ int 0 ]; write "S" [ int 0 ] ];
               ]));
      ]
  in
  let marked = Autopar.mark prog in
  Alcotest.(check (list (option string))) "blocked" [ None ] (par_vars marked)

(* Property: disjoint-write loops parallelize; adding a carried flow
   dependence blocks them. *)
let test_reduction_recognition () =
  (* SUM over A into scalar S: blocked plain, parallelized after
     reduction privatization, and the transformed program computes the
     same multiset of A accesses. *)
  let prog =
    Build.program ~name:"red" ~params:priv_params
      ~arrays:[ Build.array "A" [ v "N" ]; Build.array "S" [ i 1 ] ]
      [
        Build.(
          phase "SUM"
            (do_ "i" ~lo:(int 0) ~hi:(var "N" - int 1)
               [
                 assign ~work:2
                   [ read "A" [ var "i" ]; read "S" [ int 0 ]; write "S" [ int 0 ] ];
               ]));
      ]
  in
  let blocked = Autopar.mark prog in
  Alcotest.(check (list (option string))) "plain: blocked" [ None ]
    (par_vars blocked);
  let transformed = Autopar.mark (Autopar.recognize_reductions prog) in
  Alcotest.(check (list string)) "split into accumulate + combine"
    [ "SUM"; "SUM_COMBINE" ]
    (List.map (fun (p : Types.phase) -> p.phase_name) transformed.phases);
  Alcotest.(check (list (option string)))
    "accumulation parallel, combine sequential"
    [ Some "i"; None ]
    (par_vars transformed);
  (* A's access multiset is preserved by the transformation *)
  let env = Env.of_list [ ("N", 8) ] in
  let a_events prog =
    List.concat_map
      (fun ph -> Enumerate.addresses prog env ph ~array:"A")
      prog.Types.phases
    |> List.sort compare
  in
  Alcotest.(check bool) "A accesses preserved" true
    (a_events prog = a_events transformed);
  (* the partial array has one slot per iteration *)
  let part = List.nth transformed.phases 0 in
  let writes =
    Enumerate.addresses transformed env part ~array:"__red_S"
    |> List.filter (fun (_, k) -> k = Types.Write)
    |> List.map fst |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "slots 0..7" [ 0; 1; 2; 3; 4; 5; 6; 7 ] writes;
  (* end to end: pipeline runs and validates *)
  let t = Core.Pipeline.run transformed ~env ~h:4 in
  let r = Exec.Validate.run t.lcg t.plan in
  Alcotest.(check int) "dataflow clean" 0 r.stale

let prop_autopar_soundness =
  QCheck.Test.make ~name:"autopar: disjoint writes par, recurrences seq"
    ~count:60
    QCheck.(pair (int_range 4 12) (pair (int_range 1 3) bool))
    (fun (n, (stride, carried)) ->
      let iv = Expr.var "k" in
      let subscript =
        Expr.add (Expr.mul (Expr.int stride) iv) (Expr.int 1)
      in
      let refs =
        if carried then
          [
            Build.read "A" [ Expr.sub subscript (Expr.int stride) ];
            Build.write "A" [ subscript ];
          ]
        else [ Build.read "B" [ subscript ]; Build.write "A" [ subscript ] ]
      in
      let refs_body = [ Build.assign refs ] in
      let prog =
        Build.program ~name:"ap" ~params:Assume.empty
          ~arrays:[ Build.array "A" [ Expr.int 200 ]; Build.array "B" [ Expr.int 200 ] ]
          [
            Build.phase "P"
              (Build.do_ "k" ~lo:(Expr.int 1) ~hi:(Expr.int n) refs_body);
          ]
      in
      let marked = Autopar.mark prog in
      let ctx = Phase.analyze marked (List.hd marked.phases) in
      match (carried, ctx.par) with
      | true, None -> true
      | false, Some _ -> true
      | _ -> false)

let () =
  Alcotest.run "ir"
    [
      ( "normalize",
        [
          Alcotest.test_case "tfft2 L loop" `Quick test_normalize;
          Alcotest.test_case "step loop" `Quick test_normalize_step;
        ] );
      ("linearize", [ Alcotest.test_case "column major" `Quick test_linearize ]);
      ( "phase",
        [
          Alcotest.test_case "analyze tfft2 F3" `Quick test_phase_analyze;
          Alcotest.test_case "reject two parallel" `Quick test_phase_two_parallel;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "tfft2 oracle" `Quick test_enumerate_tfft2;
          Alcotest.test_case "per-iteration" `Quick test_enumerate_iteration;
        ] );
      ( "autopar",
        [
          Alcotest.test_case "recovers benchmark markings" `Quick
            test_autopar_recovers_markings;
          Alcotest.test_case "rejects recurrences" `Quick
            test_autopar_rejects_recurrence;
          Alcotest.test_case "reduction blocked" `Quick
            test_autopar_reduction_blocked;
          QCheck_alcotest.to_alcotest prop_autopar_soundness;
          Alcotest.test_case "reduction recognition" `Quick
            test_reduction_recognition;
        ] );
      ( "inline",
        [
          Alcotest.test_case "reshape sections" `Quick test_inline_reshape;
          Alcotest.test_case "bad calls" `Quick test_inline_errors;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "privatizable workspace" `Quick test_privatizable;
          Alcotest.test_case "live after" `Quick test_live_not_privatizable;
          Alcotest.test_case "exposed read" `Quick test_exposed_read;
          Alcotest.test_case "repeats wrap" `Quick test_repeats_wrap;
        ] );
    ]
