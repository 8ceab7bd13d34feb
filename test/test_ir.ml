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
(* Enumerator parity on non-affine phases.  [reference_iter] is
   [Enumerate.iter] with the closure [Enumerate.compile] ran for every
   non-affine bound and subscript before expressions were compiled:
   the parameters substituted as [compile] substitutes them, then
   [Expr.eval_int] with each loop variable looked up by name in the
   scope.  The event streams and the first exceptions must match. *)

let reference_iter (prog : Types.program) env (ph : Types.phase) ~f =
  let ph = Normalize.phase ph in
  let expr scope e =
    let e =
      try
        Expr.subst_env
          (List.filter_map
             (fun v ->
               if List.mem_assoc v scope then None else Some (v, Expr.int (Env.find env v)))
             (Expr.vars e))
          e
      with _ -> e
    in
    fun slots ->
      Expr.eval_int
        (fun v ->
          match List.assoc_opt v scope with
          | Some s -> Qnum.of_int slots.(s)
          | None -> Env.lookup env v)
        e
  in
  (* column-major; the trailing extent never multiplies *)
  let site scope (r : Types.array_ref) =
    let dims = (Types.array_decl prog r.array).dims in
    let dims = List.map (Env.eval env) (List.rev (List.tl (List.rev dims))) in
    let idx = List.map (expr scope) r.index in
    let rec flat idx dims slots =
      match (idx, dims) with
      | [ i ], [] -> i slots
      | i :: idx, d :: dims ->
          let a = i slots in
          Stdlib.(a + (d * flat idx dims slots))
      | _ -> invalid_arg "rank mismatch"
    in
    (r, flat idx dims)
  in
  let slots = Array.make 8 0 in
  let rec stmt scope = function
    | Types.Assign a ->
        let refs = List.map (site scope) a.refs in
        fun par ->
          List.iteri
            (fun k ((r : Types.array_ref), addr) ->
              f ~par ~array:r.array ~addr:(addr slots) r.access
                ~work:(if k = 0 then a.work else 0))
            refs
    | Types.Loop l ->
        let lo = expr scope l.lo and hi = expr scope l.hi in
        let slot = List.length scope in
        let body = List.map (stmt ((l.var, slot) :: scope)) l.body in
        fun par ->
          let lo = lo slots and hi = hi slots in
          for v = lo to hi do
            slots.(slot) <- v;
            let par = if l.parallel then Some v else par in
            List.iter (fun b -> b par) body
          done
  in
  stmt [] (Types.Loop ph.nest) None

let event_stream iter =
  let events = ref [] in
  let raised =
    match
      iter ~f:(fun ~par ~array ~addr access ~work ->
          events := (par, array, addr, access, work) :: !events)
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  (List.rev !events, raised)

let check_parity label prog env =
  List.iter
    (fun (ph : Types.phase) ->
      let got = event_stream (Enumerate.iter prog env ph)
      and want = event_stream (reference_iter prog env ph) in
      let name = Printf.sprintf "%s %s" label ph.phase_name in
      Alcotest.(check int) (name ^ " events") (List.length (fst want)) (List.length (fst got));
      Alcotest.(check bool) (name ^ " stream") true (fst want = fst got);
      Alcotest.(check (option string)) (name ^ " first exception") (snd want) (snd got))
    prog.Types.phases

let test_enumerate_parity_tfft2 () =
  let e = Codes.Registry.find "tfft2" in
  List.iter
    (fun size -> check_parity (Printf.sprintf "tfft2@%d" size) e.program (e.env_of_size size))
    [ 3; 4; 5; 6 ]

(* A generated program with its subscripts passed through floor and
   ceiling divisions.  In [zero] each subscript also divides by the
   innermost loop variable minus its second value, so a walk that
   reaches that iteration raises [Division_by_zero] part way through. *)
let with_quotients ~zero (prog : Types.program) =
  let rec stmt inner = function
    | Types.Assign a ->
        let index (r : Types.array_ref) =
          List.mapi
            (fun k s ->
              let s =
                match (k mod 2, inner) with
                | 0, _ -> Expr.(floor_div (add (mul (int 3) s) one) (int 2))
                | _, Some (l : Types.loop) -> Expr.(ceil_div (mul s s) (add (var l.var) one))
                | _, None -> Expr.ceil_div s (i 3)
              in
              match inner with
              | Some l when zero -> Expr.(add s (floor_div (int 5) (sub (var l.var) (add l.lo l.step))))
              | _ -> s)
            r.index
        in
        Types.Assign { a with refs = List.map (fun r -> { r with Types.index = index r }) a.refs }
    | Types.Loop l -> Types.Loop (loop l)
  and loop (l : Types.loop) = { l with body = List.map (stmt (Some l)) l.body } in
  {
    prog with
    phases = List.map (fun (ph : Types.phase) -> { ph with nest = loop ph.nest }) prog.phases;
  }

let test_enumerate_parity_quotients () =
  let prog = Fuzz.Gen.program Fuzz.Gen.default ~seed:2026 ~index:3 in
  let env = Fuzz.Gen.midpoint_env prog in
  check_parity "fuzz#3 floor/ceil" (with_quotients ~zero:false prog) env;
  let zero = with_quotients ~zero:true prog in
  check_parity "fuzz#3 zero divisor" zero env;
  Alcotest.(check bool) "some walk raises Division_by_zero" true
    (List.exists
       (fun ph -> snd (event_stream (Enumerate.iter zero env ph)) <> None)
       zero.phases)

(* ------------------------------------------------------------------ *)
(* Liveness / privatizability *)

(* Two phases over a work array W: F1 writes then reads W per iteration
   (classic privatizable workspace), F2 overwrites W entirely. *)
(* Each phase's shape at [env], as a pipeline run derives them. *)
let shapes (prog : Types.program) env =
  Array.of_list
    (List.map (fun ph -> lazy (Shape.of_phase (Phase.analyze prog ph) env)) prog.phases)

let priv_params = Assume.of_list [ ("N", Assume.Int_range (4, 16)) ]
let priv_env = Env.of_list [ ("N", 8) ]

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
  let attr = Liveness.attr priv_prog priv_env (shapes priv_prog priv_env) 0 ~array:"W" in
  Alcotest.(check string) "W privatizable in F1" "P" (Liveness.attr_to_string attr);
  let attr_a = Liveness.attr priv_prog priv_env (shapes priv_prog priv_env) 0 ~array:"A" in
  Alcotest.(check string) "A read-only" "R" (Liveness.attr_to_string attr_a);
  (* B is written and never overwritten: it survives to program exit,
     i.e. it is an output - live, hence W rather than P. *)
  let attr_b = Liveness.attr priv_prog priv_env (shapes priv_prog priv_env) 0 ~array:"B" in
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
  let attr = Liveness.attr live_prog priv_env (shapes live_prog priv_env) 0 ~array:"W" in
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
  let attr = Liveness.attr exposed_prog priv_env (shapes exposed_prog priv_env) 0 ~array:"W" in
  Alcotest.(check string) "read before write" "R/W" (Liveness.attr_to_string attr)

(* Repetition wraps liveness around: F1 writes W, F2 reads W, and with
   repeats=true the value written in F2's... F1's W is read by F2 so W
   is live after F1 regardless; but B (written in F1, read by nobody)
   stays dead even around the back edge. *)
let test_repeats_wrap () =
  let prog = { live_prog with repeats = true } in
  Alcotest.(check string) "wrap: W live" "R/W"
    (Liveness.attr_to_string (Liveness.attr prog priv_env (shapes prog priv_env) 0 ~array:"W"));
  (* C is written in F2 and never read, even on wrap: P. *)
  Alcotest.(check string) "wrap: C dead" "P"
    (Liveness.attr_to_string (Liveness.attr prog priv_env (shapes prog priv_env) 1 ~array:"C"))

(* A parallel loop whose trip count follows the sequential loop runs
   again for every i, so a write pinned to iteration j in one run does
   not cover a read of iteration j in a later run: at i = 2 the reads
   A(0) and A(1) follow writes of A(4) and A(3) only.  Liveness must
   not call A privatizable (the enumerating oracle's verdict). *)
let test_triangular_parallel_rerun () =
  let open Build in
  let i = var "i" and j = var "j" in
  let prog =
    program ~repeats:true ~name:"rerun" ~params:Assume.empty ~arrays:[ array "A" [ int 8 ] ]
      [
        phase "P"
          (do_ "i" ~lo:(int 0) ~hi:(int 2)
             [
               doall "j" ~lo:(int 0) ~hi:i
                 [
                   assign [ write "A" [ j + ((i - j) * i * (i - int 1)) ] ];
                   assign [ read "A" [ j ] ];
                 ];
             ]);
      ]
  in
  Alcotest.(check string) "A not privatizable" "R/W"
    (Liveness.attr_to_string (Liveness.attr prog Env.empty (shapes prog Env.empty) 0 ~array:"A"))

(* [f ()] under one [Lattice.mode], restored afterwards. *)
let in_mode mode f =
  let saved = !Lattice.mode in
  Lattice.mode := mode;
  Fun.protect ~finally:(fun () -> Lattice.mode := saved) f

let attr_in mode prog env k ~array =
  in_mode mode (fun () -> Liveness.attr_to_string (Liveness.attr prog env (shapes prog env) k ~array))

(* [closed]: the closed form answers both questions, with no fallback. *)
let check_both ?(closed = false) name want prog env k ~array =
  let before = Lattice.fallback_count () in
  Alcotest.(check string) (name ^ " (closed form)") want
    (attr_in Lattice.Auto prog env k ~array);
  if closed then
    Alcotest.(check int) (name ^ ": no fallback") before (Lattice.fallback_count ());
  Alcotest.(check string) (name ^ " (oracle)") want
    (attr_in Lattice.Enumerated_only prog env k ~array)

(* The quadratic term partially evaluates [i], so the doall's sites are
   listed once per run; at i = 2 the writes move to A(4), A(5) while
   the reads stay on A(0), A(1).  A write of run 0 has the read's shape
   but belongs to another run of the parallel loop: it covers nothing. *)
let test_cover_across_runs () =
  let open Build in
  let i = var "i" and j = var "j" in
  let prog =
    program ~repeats:true ~name:"runs" ~params:Assume.empty ~arrays:[ array "A" [ int 8 ] ]
      [
        phase "P"
          (do_ "i" ~lo:(int 0) ~hi:(int 2)
             [
               doall "j" ~lo:(int 0) ~hi:(int 1)
                 [
                   assign [ write "A" [ j + (int 2 * i * (i - int 1)) ] ];
                   assign [ read "A" [ j ] ];
                 ];
             ]);
      ]
  in
  check_both "identical shape, another run" "R/W" prog Env.empty 0 ~array:"A";
  (* The same through the box cover: each run writes A(4j..4j+3) + 8i(i-1)
     and reads A(4j), A(4j+1). *)
  let prog =
    program ~repeats:true ~name:"runs" ~params:Assume.empty ~arrays:[ array "A" [ int 24 ] ]
      [
        phase "P"
          (do_ "i" ~lo:(int 0) ~hi:(int 2)
             [
               doall "j" ~lo:(int 0) ~hi:(int 1)
                 [
                   do_ "s" ~lo:(int 0) ~hi:(int 3)
                     [ assign [ write "A" [ (int 4 * j) + var "s" + (int 8 * i * (i - int 1)) ] ] ];
                   do_ "t" ~lo:(int 0) ~hi:(int 1)
                     [ assign [ read "A" [ (int 4 * j) + var "t" ] ] ];
                 ];
             ]);
      ]
  in
  check_both "box cover, another run" "R/W" prog Env.empty 0 ~array:"A"

(* A write and a read under one sequential loop: iteration i's write box
   A(4i..4i+3) holds its read box, but at k = 0 the read of A(4i+3)
   comes before its write.  F2 overwrites A, so only def-before-use
   decides the attribute. *)
let test_cover_in_shared_loop () =
  let open Build in
  let i = var "i" and k = var "k" in
  let prog =
    program ~name:"shared" ~params:priv_params ~arrays:[ array "A" [ int 4 * var "N" ] ]
      [
        phase "F1"
          (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
             [
               do_ "k" ~lo:(int 0) ~hi:(int 3)
                 [
                   assign [ write "A" [ (int 4 * i) + k ] ];
                   assign [ read "A" [ (int 4 * i) + int 3 - k ] ];
                 ];
             ]);
        phase "F2"
          (doall "i" ~lo:(int 0) ~hi:(int 4 * var "N" - int 1) [ assign [ write "A" [ i ] ] ]);
      ]
  in
  check_both "read first in a shared loop" "R/W" prog priv_env 0 ~array:"A";
  (* The same with the shared loop above the parallel one: over both
     values of t the write box A(2i..2i+1) holds the read box, but at
     t = 0 iteration i reads A(2i+1) before anything writes it. *)
  let prog =
    program ~name:"outer" ~params:priv_params ~arrays:[ array "A" [ int 2 * var "N" ] ]
      [
        phase "F1"
          (do_ "t" ~lo:(int 0) ~hi:(int 1)
             [
               doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
                 [
                   assign [ write "A" [ (int 2 * i) + var "t" ] ];
                   assign [ read "A" [ (int 2 * i) + int 1 - var "t" ] ];
                 ];
             ]);
        phase "F2"
          (doall "i" ~lo:(int 0) ~hi:(int 2 * var "N" - int 1) [ assign [ write "A" [ i ] ] ]);
      ]
  in
  check_both "read first under a loop above the parallel one" "R/W" prog priv_env 0 ~array:"A";
  (* Written in a loop of its own before the reads: P. *)
  let prog =
    program ~name:"apart" ~params:priv_params ~arrays:[ array "A" [ int 4 * var "N" ] ]
      [
        phase "F1"
          (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
             [
               do_ "k" ~lo:(int 0) ~hi:(int 3) [ assign [ write "A" [ (int 4 * i) + k ] ] ];
               do_ "m" ~lo:(int 0) ~hi:(int 3)
                 [ assign [ read "A" [ (int 4 * i) + int 3 - var "m" ] ] ];
             ]);
        phase "F2"
          (doall "i" ~lo:(int 0) ~hi:(int 4 * var "N" - int 1) [ assign [ write "A" [ i ] ] ]);
      ]
  in
  check_both ~closed:true "written in a loop before" "P" prog priv_env 0 ~array:"A"

(* F2 reads every address it writes, but only after writing it: the
   values F1 leaves in A are dead. *)
let test_write_before_read_later () =
  let open Build in
  let i = var "i" in
  let prog =
    program ~name:"kill" ~params:priv_params ~arrays:[ array "A" [ var "N" ] ]
      [
        phase "F1" (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1) [ assign [ write "A" [ i ] ] ]);
        phase "F2"
          (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
             [ assign [ write "A" [ i ] ]; assign [ read "A" [ i ] ] ]);
      ]
  in
  check_both "killed before read" "P" prog priv_env 0 ~array:"A";
  (* Read first: live. *)
  let prog =
    program ~name:"use" ~params:priv_params ~arrays:[ array "A" [ var "N" ] ]
      [
        phase "F1" (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1) [ assign [ write "A" [ i ] ] ]);
        phase "F2"
          (doall "i" ~lo:(int 0) ~hi:(var "N" - int 1)
             [ assign [ read "A" [ i ]; write "A" [ i ] ] ]);
      ]
  in
  check_both ~closed:true "read before killed" "W" prog priv_env 0 ~array:"A"

(* The closed form answers every liveness question of the nine kernels
   (no fallback) and agrees with the enumerating oracle, at every size
   from the default up: tfft2 and trisolve to 8, matmul to 7 (the oracle
   walks 4^size and 8^size addresses there), the others to 8. *)
let test_registry_closed_form () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let top = if e.name = "matmul" then 7 else 8 in
      for size = e.default_size to top do
        let env = e.env_of_size size in
        let attrs mode =
          in_mode mode (fun () ->
              List.map
                (fun (a, xs) -> (a, Array.to_list (Array.map Liveness.attr_to_string xs)))
                (Liveness.attrs e.program env (shapes e.program env)))
        in
        let name = Printf.sprintf "%s@%d" e.name size in
        let before = Lattice.fallback_count () in
        let closed = attrs Lattice.Auto in
        Alcotest.(check int) (name ^ ": no fallback") before (Lattice.fallback_count ());
        Alcotest.(check (list (pair string (list string))))
          (name ^ ": closed form = oracle") (attrs Lattice.Enumerated_only) closed
      done)
    Codes.Registry.all

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

(* Every phase re-marked by the one marking decision, without the
   reduction rewrite [Core.Lint.autopar] runs first. *)
let mark (prog : Types.program) =
  let envs = Core.Lint.default_envs prog in
  {
    prog with
    phases =
      List.map
        (fun ph -> (Descriptor.Racecheck.decide ~envs prog ph).phase)
        prog.phases;
  }

let test_autopar_recovers_markings () =
  (* Stripping the hand markings and re-deriving them restores the same
     parallel loop in every phase of every benchmark. *)
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let stripped = strip_markings e.program in
      let marked = mark stripped in
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
  let marked = mark prog in
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
  let marked2 = mark inner_only in
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
  let marked = mark prog in
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
  let blocked = mark prog in
  Alcotest.(check (list (option string))) "plain: blocked" [ None ]
    (par_vars blocked);
  let transformed = Core.Lint.autopar prog in
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
      let marked = mark prog in
      let ctx = Phase.analyze marked (List.hd marked.phases) in
      match (carried, ctx.par) with
      | true, None -> true
      | false, Some _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Closed-form address ranges ([Shape.ranges]) and the restricted walk,
   against the full walk *)

(* The walk's least and greatest address per array, in order of first
   reference. *)
let walked_ranges prog env ph =
  let tbl = Hashtbl.create 8 and order = ref [] in
  Enumerate.iter prog env ph ~f:(fun ~par:_ ~array ~addr _ ~work:_ ->
      match Hashtbl.find_opt tbl array with
      | Some (lo, hi) -> Hashtbl.replace tbl array (min lo addr, max hi addr)
      | None ->
          Hashtbl.add tbl array (addr, addr);
          order := array :: !order);
  List.rev_map
    (fun a ->
      let lo, hi = Hashtbl.find tbl a in
      (a, lo, hi))
    !order

let closed_range prog env ph =
  match Phase.analyze prog ph with
  | ctx -> Option.bind (Shape.of_phase ctx env) Shape.ranges
  | exception Phase.Invalid_phase _ -> None

(* [Shape.ranges] answers wherever the walk does, with the walk's answer. *)
let range_exact prog env ph =
  match walked_ranges prog env ph with
  | exception _ -> true
  | w -> closed_range prog env ph = Some w

let fuzz_program (seed, index) = Fuzz.Gen.program Fuzz.Gen.default ~seed ~index

let arb_fuzz =
  QCheck.make
    QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 200))
    ~print:(fun (seed, index) ->
      Format.asprintf "seed %d index %d:@.%a" seed index Types.pp_program
        (fuzz_program (seed, index)))

let on_samples prog f =
  List.for_all
    (fun env -> List.for_all (f env) prog.Types.phases)
    (Core.Lint.default_envs prog)

let prop_range_fuzz =
  QCheck.Test.make ~name:"Shape ranges = walk extremes (fuzz phases)" ~count:60 arb_fuzz
    (fun key ->
      let prog = fuzz_program key in
      on_samples prog (range_exact prog))

(* Random affine nests: bounds affine in the next outer variable (so
   triangular, possibly empty), subscripts with coefficients of either
   sign. *)
let arb_affine_nest =
  let open QCheck.Gen in
  let coef = int_range (-3) 3 in
  let gen =
    let* depth = int_range 1 3 in
    let* bounds =
      list_repeat depth (pair (pair (int_range (-2) 3) coef) (pair (int_range (-1) 6) coef))
    in
    let* subs = list_repeat 2 (pair (int_range (-5) 5) (list_repeat depth coef)) in
    return (bounds, subs)
  in
  let program (bounds, subs) =
    let vars = List.mapi (fun k _ -> Expr.var (Printf.sprintf "v%d" k)) bounds in
    let affine c0 terms =
      List.fold_left (fun acc (c, x) -> Expr.add acc (Expr.mul (i c) x)) (i c0) terms
    in
    let sub (c0, cs) = affine c0 (List.combine cs vars) in
    let body =
      [ Build.assign [ Build.read "A" [ sub (List.nth subs 1) ]; Build.write "A" [ sub (List.hd subs) ] ] ]
    in
    let outer k = if k = 0 then [] else [ List.nth vars (k - 1) ] in
    let nest =
      List.fold_right
        (fun (k, ((lo0, lo1), (hi0, hi1))) inner ->
          let lo = affine lo0 (List.map (fun x -> (lo1, x)) (outer k))
          and hi = affine hi0 (List.map (fun x -> (hi1, x)) (outer k)) in
          let var = Printf.sprintf "v%d" k in
          [ (if k = 0 then Build.doall var ~lo ~hi inner else Build.do_ var ~lo ~hi inner) ])
        (List.mapi (fun k b -> (k, b)) bounds)
        body
    in
    Build.program ~name:"aff" ~params:Assume.empty
      ~arrays:[ Build.array "A" [ i 4000 ] ]
      [ Build.phase "P" (List.hd nest) ]
  in
  QCheck.make (map program gen) ~print:(Format.asprintf "%a" Types.pp_program)

let prop_range_affine =
  QCheck.Test.make ~name:"Shape ranges = walk extremes (affine nests)" ~count:300
    arb_affine_nest (fun prog -> range_exact prog Env.empty (List.hd prog.Types.phases))

let range_params = Assume.of_list [ ("N", Assume.Int_range (4, 12)) ]
let range_env = Env.of_list [ ("N", 7) ]

let range_program body =
  Build.program ~name:"r" ~params:range_params
    ~arrays:[ Build.array "A" [ v "N"; v "N" ] ]
    [ Build.phase "P" body ]

let check_range name want body =
  let prog = range_program body in
  let ph = List.hd prog.Types.phases in
  Alcotest.(check (option (list (triple string int int))))
    name want
    (closed_range prog range_env ph);
  Option.iter
    (fun want ->
      Alcotest.(check (list (triple string int int)))
        (name ^ ": the walk's") want (walked_ranges prog range_env ph))
    want

let test_range_cases () =
  let n = v "N" in
  (* normalized triangular nest: j runs 0..i, never empty *)
  check_range "triangular" (Some [ ("A", 0, 48) ])
    Build.(
      doall "i" ~lo:(int 0) ~hi:(n - int 1)
        [ do_ "j" ~lo:(int 0) ~hi:(var "i") [ assign [ write "A" [ var "i"; var "j" ] ] ] ]);
  (* j runs 0..i-1, empty at i = 0 *)
  check_range "triangular, empty first row" (Some [ ("A", 1, 41) ])
    Build.(
      doall "i" ~lo:(int 0) ~hi:(n - int 1)
        [ do_ "j" ~lo:(int 0) ~hi:(var "i" - int 1) [ assign [ write "A" [ var "i"; var "j" ] ] ] ]);
  (* a zero-trip inner loop beside a statement that runs *)
  check_range "zero-trip inner loop" (Some [ ("A", 0, 6) ])
    Build.(
      doall "i" ~lo:(int 0) ~hi:(n - int 1)
        [
          assign [ write "A" [ var "i"; int 0 ] ];
          do_ "j" ~lo:(int 0) ~hi:(int (-1)) [ assign [ read "A" [ var "j"; var "i" ] ] ];
        ]);
  (* negative stride: 2*(N-1) - 2*i runs down from 12 to 0 *)
  check_range "negative stride" (Some [ ("A", 0, 12) ])
    Build.(
      doall "i" ~lo:(int 0) ~hi:(n - int 1)
        [ assign [ read "A" [ (int 2 * (n - int 1)) - (int 2 * var "i"); int 0 ] ] ]);
  (* a non-affine subscript pins each parallel iteration *)
  check_range "non-affine subscript" (Some [ ("A", 0, 36) ])
    Build.(
      doall "i" ~lo:(int 0) ~hi:(n - int 1) [ assign [ read "A" [ var "i" * var "i"; int 0 ] ] ]);
  (* a parallel loop whose trip count depends on the sequential loop *)
  check_range "triangular parallel loop" (Some [ ("A", 0, 48) ])
    Build.(
      do_ "i" ~lo:(int 0) ~hi:(n - int 1)
        [ doall "j" ~lo:(int 0) ~hi:(var "i") [ assign [ write "A" [ var "i"; var "j" ] ] ] ]);
  (* two parallel loops break the phase condition: no closed form *)
  check_range "two parallel loops" None
    Build.(
      doall "i" ~lo:(int 0) ~hi:(n - int 1)
        [ doall "j" ~lo:(int 0) ~hi:(n - int 1) [ assign [ write "A" [ var "i"; var "j" ] ] ] ])

(* [iter ~only] = the full walk filtered the same way. *)
let restricted_equal prog env ph =
  let events ?only keep =
    let acc = ref [] in
    match
      Enumerate.iter ?only prog env ph ~f:(fun ~par ~array ~addr access ~work ->
          if keep par array then acc := (par, array, addr, access, work) :: !acc)
    with
    | () -> Ok (List.rev !acc)
    | exception e -> Error (Printexc.to_string e)
  in
  List.for_all
    (fun array ->
      List.for_all
        (fun pars ->
          let full =
            events (fun par a ->
                String.equal a array
                && match par with Some p -> List.mem p pars | None -> false)
          in
          match full with
          | Error _ -> true (* the restricted walk may avoid the error *)
          | Ok _ -> events ~only:(array, pars) (fun _ _ -> true) = full)
        [ [ 0; 1 ]; [ 1 ]; [ 0; 2; 3 ] ])
    (Types.phase_arrays ph)

let prop_restricted_walk =
  QCheck.Test.make ~name:"iter ~only = filtered full walk (fuzz phases)" ~count:60 arb_fuzz
    (fun key ->
      let prog = fuzz_program key in
      on_samples prog (restricted_equal prog))

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
          Alcotest.test_case "tfft2 parity" `Quick test_enumerate_parity_tfft2;
          Alcotest.test_case "floor/ceil parity" `Quick test_enumerate_parity_quotients;
          Alcotest.test_case "address range cases" `Quick test_range_cases;
          QCheck_alcotest.to_alcotest prop_range_fuzz;
          QCheck_alcotest.to_alcotest prop_range_affine;
          QCheck_alcotest.to_alcotest prop_restricted_walk;
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
          Alcotest.test_case "triangular parallel loop re-run" `Quick
            test_triangular_parallel_rerun;
          Alcotest.test_case "cover across runs" `Quick test_cover_across_runs;
          Alcotest.test_case "cover in a shared loop" `Quick test_cover_in_shared_loop;
          Alcotest.test_case "write before read in a later phase" `Quick
            test_write_before_read_later;
          Alcotest.test_case "registry closed form = oracle" `Slow
            test_registry_closed_form;
        ] );
    ]
