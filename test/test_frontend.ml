(* Tests for the surface-language frontend: lexing, parsing, error
   reporting, and the unparse/parse round trip. *)

open Symbolic
open Ir
open Frontend

let parse = Parse.program

let tfft2_src =
  {|program tfft2_f3
param p = 2..6
param q = 1..5
pow2 P = p
pow2 Q = q
real X(2*P*Q)

phase F3:
  doall I = 0, Q-1
    do L = 1, p
      do J = 0, P * 2^(0-L) - 1
        do K = 0, 2^(L-1) - 1
          X(2*P*I + 2^(L-1)*J + K) = X(2*P*I + 2**(L-1)*J + K) + X(2*P*I + 2^(L-1)*J + K + P/2) work 8
        end
      end
    end
  end
|}

let test_parse_tfft2 () =
  let prog = parse tfft2_src in
  Alcotest.(check string) "name" "tfft2_f3" prog.Types.prog_name;
  Alcotest.(check int) "one phase" 1 (List.length prog.phases);
  Alcotest.(check int) "one array" 1 (List.length prog.arrays);
  Alcotest.(check bool) "not repeating" false prog.repeats;
  (* structural: 4 loops, 3 refs *)
  let ctx = Phase.analyze prog (List.hd prog.phases) in
  Alcotest.(check int) "4 loops" 4 (List.length ctx.loops);
  Alcotest.(check int) "3 refs" 3 (List.length ctx.sites);
  match ctx.par with
  | Some l -> Alcotest.(check string) "parallel over I" "I" l.var
  | None -> Alcotest.fail "expected a parallel loop"

(* The parsed phase touches exactly the same addresses as the
   registry's Fig. 1 program, read/write multiset included. *)
let test_tfft2_semantics () =
  let parsed = parse tfft2_src in
  let built = Codes.Registry.fig1 in
  List.iter
    (fun (p, q) ->
      let env = Codes.Registry.bind built [ ("p", p); ("q", q) ] in
      let a =
        Enumerate.addresses parsed env (List.hd parsed.phases) ~array:"X"
      in
      let b = Enumerate.addresses built env (List.hd built.phases) ~array:"X" in
      Alcotest.(check int)
        (Printf.sprintf "event count p=%d q=%d" p q)
        (List.length b) (List.length a);
      Alcotest.(check bool) "same multiset" true
        (List.sort compare a = List.sort compare b))
    [ (2, 1); (3, 2) ]

(* And the analysis produces the same final descriptor. *)
let test_tfft2_descriptor () =
  Probe.with_seed 80 (fun () ->
      let parsed = parse tfft2_src in
      let ctx = Phase.analyze parsed (List.hd parsed.phases) in
      let pd =
        Descriptor.Unionize.simplify (Descriptor.Pd.of_phase (Descriptor.Ard.of_phase ctx) ~array:"X")
      in
      let g = List.hd pd.groups in
      Alcotest.(check int) "single row" 1 (List.length g.rows);
      let r = List.hd g.rows in
      Alcotest.(check bool) "alpha = (Q, P)" true
        (Probe.equal ctx.assume (List.nth r.alphas 0) (Expr.var "Q")
        && Probe.equal ctx.assume (List.nth r.alphas 1) (Expr.var "P")))

(* Locate the sample file whether we run under `dune runtest` (cwd in
   _build) or directly; walk up to the first ancestor that has it. *)
let sample name =
  let rec up dir =
    let candidate = Filename.concat dir (Filename.concat "examples/programs" name) in
    if Sys.file_exists candidate then candidate
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then failwith ("sample not found: " ^ name)
      else up parent
  in
  up (Sys.getcwd ())

let test_parse_file () =
  let prog = Parse.program_file (sample "jacobi2d.dsm") in
  Alcotest.(check string) "name" "jacobi2d" prog.Types.prog_name;
  Alcotest.(check bool) "repeats" true prog.repeats;
  Alcotest.(check int) "two phases" 2 (List.length prog.phases);
  (* runs through the pipeline *)
  let env = Env.of_list [ ("N", 16) ] in
  let t = Core.Pipeline.run prog ~env ~h:4 in
  let eff, _ = Core.Pipeline.efficiency t in
  Alcotest.(check bool) "positive efficiency" true (eff > 0.0)

let test_step_and_sink () =
  let prog =
    parse
      {|program steps
param N = 8..32
real A(N)
real B(N)

phase S:
  doall i = 0, N-1 step 2
    A(i) = B(i) work 3
    B(i)
  end
|}
  in
  let ph = List.hd prog.Types.phases in
  (* normalized enumeration honours the step *)
  let env = Env.of_list [ ("N", 8) ] in
  let writes =
    Enumerate.addresses prog env ph ~array:"A" |> List.map fst
  in
  Alcotest.(check (list int)) "strided writes" [ 0; 2; 4; 6 ] writes;
  let b_reads = Enumerate.addresses prog env ph ~array:"B" in
  Alcotest.(check int) "sink + rhs reads" 8 (List.length b_reads);
  Alcotest.(check bool) "all reads" true
    (List.for_all (fun (_, a) -> a = Types.Read) b_reads)

let check_error src fragment =
  match parse src with
  | exception Parse.Error { message; _ } ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" fragment message)
        true (contains message fragment)
  | _ -> Alcotest.fail "expected a parse error"

let test_errors () =
  check_error {|program x
real A(10)
phase P:
  doall i = 0, 9
    B(i) = A(i)
  end
|} "not a declared array";
  check_error {|program x
real A(10)
phase P:
  doall i = 0, 9
    A(A(i)) = A(i)
  end
|} "subscript";
  check_error {|program x
real A(10)
phase P:
  doall i = 0, 9
    A(i) = 3 ^ i
  end
|} "exponent";
  check_error "program x\n" "no phases"

let test_lexer_tokens () =
  let lx = Lexer.of_string "do 2**3 .. ^ ! comment\nA_1" in
  let toks = ref [] in
  let rec go () =
    match Lexer.next lx with
    | Lexer.EOF -> ()
    | t ->
        toks := t :: !toks;
        go ()
  in
  go ();
  Alcotest.(check int) "token count" 8 (List.length !toks)

(* ------------------------------------------------------------------ *)
(* Unparse round trip *)

let same_events prog_a prog_b env =
  List.length prog_a.Types.phases = List.length prog_b.Types.phases
  && List.for_all2
       (fun a b ->
         List.for_all
           (fun (d : Types.array_decl) ->
             let ea = Enumerate.addresses prog_a env a ~array:d.name in
             let eb = Enumerate.addresses prog_b env b ~array:d.name in
             List.sort compare ea = List.sort compare eb)
           prog_a.arrays)
       prog_a.phases prog_b.phases

(* Structural identity of two programs: the names of the fields that
   differ (name, params, arrays, phases, repeats), expressions compared
   with [Expr.equal], references in order with their access and work. *)
let differences (a : Types.program) (b : Types.program) =
  let all2 f x y = List.length x = List.length y && List.for_all2 f x y in
  let exprs = all2 Expr.equal in
  let domain (x, d) (y, e) =
    String.equal x y
    &&
    match (d, e) with
    | Assume.Int_range (l, h), Assume.Int_range (l', h') -> l = l' && h = h'
    | Assume.Pow2_of v, Assume.Pow2_of w -> String.equal v w
    | Assume.Expr_range (l, h), Assume.Expr_range (l', h') ->
        Expr.equal l l' && Expr.equal h h'
    | _ -> false
  in
  let reference (r : Types.array_ref) (s : Types.array_ref) =
    String.equal r.array s.array
    && Types.equal_access r.access s.access
    && exprs r.index s.index
  in
  let rec stmt x y =
    match (x, y) with
    | Types.Assign x, Types.Assign y -> x.work = y.work && all2 reference x.refs y.refs
    | Types.Loop x, Types.Loop y -> loop x y
    | _ -> false
  and loop (x : Types.loop) (y : Types.loop) =
    String.equal x.var y.var && x.parallel = y.parallel
    && exprs [ x.lo; x.hi; x.step ] [ y.lo; y.hi; y.step ]
    && all2 stmt x.body y.body
  in
  [
    ("name", String.equal a.prog_name b.prog_name);
    ("params", all2 domain (Assume.to_list a.params) (Assume.to_list b.params));
    ( "arrays",
      all2
        (fun (x : Types.array_decl) (y : Types.array_decl) ->
          String.equal x.name y.name && exprs x.dims y.dims)
        a.arrays b.arrays );
    ( "phases",
      all2
        (fun (x : Types.phase) (y : Types.phase) ->
          String.equal x.phase_name y.phase_name && loop x.nest y.nest)
        a.phases b.phases );
    ("repeats", a.repeats = b.repeats);
  ]
  |> List.filter_map (fun (field, same) -> if same then None else Some field)

let check_roundtrip (label, prog) =
  match Parse.program (Unparse.to_string prog) with
  | parsed ->
      Alcotest.(check (list string)) (label ^ " roundtrip") [] (differences prog parsed)
  | exception Parse.Error { line; message } ->
      Alcotest.fail
        (Printf.sprintf "%s: unparsed text fails to parse at line %d: %s" label
           line message)

(* Parse (Unparse p) = p for the registry kernels and Fig. 1 ... *)
let test_roundtrip_registry () =
  List.iter check_roundtrip
    (("fig1", Codes.Registry.fig1)
    :: List.map (fun (e : Codes.Registry.entry) -> (e.name, e.program)) Codes.Registry.all)

(* ... and for the fuzz campaign 2026: default programs #0-199, deep
   #0-11. *)
let test_roundtrip_fuzz () =
  let campaign name profile count =
    List.init count (fun index ->
        ( Printf.sprintf "%s#%d" name index,
          Fuzz.Gen.program profile ~seed:2026 ~index ))
  in
  List.iter check_roundtrip
    (campaign "default" Fuzz.Gen.default 200 @ campaign "deep" Fuzz.Gen.deep 12)

let gen_simple_program =
  let open QCheck.Gen in
  let* n = int_range 4 12 in
  let* stride = int_range 1 3 in
  let* off = int_range 0 3 in
  let* work = int_range 1 9 in
  let* inner = int_range 1 4 in
  let v = Expr.var and i = Expr.int in
  let idx =
    Expr.add (Expr.mul (i stride) (v "x")) (Expr.add (v "y") (i off))
  in
  return
    (Build.program ~name:"rt" ~params:Assume.empty
       ~arrays:[ Build.array "A" [ i 200 ]; Build.array "B" [ i 200 ] ]
       [
         Build.phase "P"
           (Build.doall "x" ~lo:(i 0) ~hi:(i (Stdlib.( - ) n 1))
              [
                Build.do_ "y" ~lo:(i 0) ~hi:(i (Stdlib.( - ) inner 1))
                  [
                    Build.assign ~work
                      [ Build.read "B" [ idx ]; Build.write "A" [ idx ] ];
                  ];
              ]);
       ])

let prop_roundtrip_random =
  QCheck.Test.make ~name:"parse(unparse(p)) preserves events" ~count:60
    (QCheck.make gen_simple_program ~print:Unparse.to_string)
    (fun prog ->
      match Parse.program (Unparse.to_string prog) with
      | parsed -> same_events prog parsed Env.empty
      | exception Parse.Error _ -> false)

(* Subroutines and calls: the inter-procedural path from text. *)
let test_sub_call () =
  let prog = Parse.program_file (sample "reshape_calls.dsm") in
  Alcotest.(check (list string)) "phases spliced in order"
    [ "INIT"; "C1_SMOOTH"; "C2_SMOOTH"; "USE" ]
    (List.map (fun (p : Types.phase) -> p.phase_name) prog.phases);
  (* the two calls touch disjoint halves of G2 *)
  let env = Env.of_list [ ("N", 8); ("M", 8) ] in
  let c1 = List.nth prog.phases 1 and c2 = List.nth prog.phases 2 in
  let touches ph =
    Enumerate.addresses prog env ph ~array:"G2"
    |> List.map fst |> List.sort_uniq compare
  in
  let t1 = touches c1 and t2 = touches c2 in
  Alcotest.(check bool) "disjoint halves" true
    (List.for_all (fun a -> not (List.mem a t2)) t1);
  Alcotest.(check bool) "second half shifted by N*M" true
    (List.for_all (fun a -> a >= 64) t2);
  (* full pipeline + dataflow validation *)
  let t = Core.Pipeline.run prog ~env ~h:4 in
  let v = Exec.Validate.run t.lcg t.plan in
  Alcotest.(check int) "no stale reads" 0 v.stale

let test_sub_errors () =
  check_error {|program x
real G(10)
sub s(A(4))
phase P:
  doall i = 0, 3
    A(i) = A(i)
  end
endsub
call s(G, G)
|} "expects 1 arguments";
  check_error {|program x
real G(10)
call nope(G)
|} "unknown subroutine"

(* ------------------------------------------------------------------ *)
(* Hostile inputs: whatever the bytes, the frontend either parses or
   raises [Parse.Error] - never any other exception - and the total
   wrapper [Core.Pipeline.parse_program] turns every failure into a
   positioned FRONTEND-PARSE diagnostic. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let hostile_corpus () =
  let base = read_file (sample "jacobi2d.dsm") in
  let n = String.length base in
  (* truncations at many offsets *)
  let truncations =
    List.init ((n / 7) + 1) (fun i -> String.sub base 0 (min n (i * 7)))
  in
  let st = Random.State.make [| 0xbad; 0xf00d |] in
  (* random garbage, raw and spliced into valid source *)
  let garbage =
    List.init 40 (fun _ ->
        String.init
          (Random.State.int st 200)
          (fun _ -> Char.chr (Random.State.int st 256)))
  in
  let spliced =
    List.init 40 (fun _ ->
        let cut = Random.State.int st (n + 1) in
        let len = Random.State.int st 8 in
        String.sub base 0 cut
        ^ String.init len (fun _ -> Char.chr (Random.State.int st 256))
        ^ String.sub base cut (n - cut))
  in
  let nuls = [ "\000"; "program x\000y\nreal A(4)\n"; base ^ "\000" ] in
  let huge =
    [
      "program x\nreal A(99999999999999999999999)\n";
      "program x\nparam N = 1..123456789123456789123456789\n";
    ]
  in
  let deep =
    let parens k = String.make k '(' ^ "i" ^ String.make k ')' in
    [
      "program x\nreal A(10)\nphase P:\ndo i = 0, 9\n  A" ^ parens 5000
      ^ " = 0\nend\n";
      "program x\nreal A(10)\nphase P:\ndo i = 0, 9\n  A(2"
      ^ String.concat "" (List.init 5000 (fun _ -> "^2"))
      ^ ") = 0\nend\n";
    ]
  in
  (* constant folds that divide by zero or overflow *)
  let folds =
    let phase body =
      "program x\nparam N = 4..8\nreal U(N)\nphase P:\ndoall c = 0, N - 1\n  "
      ^ body ^ "\nend\n"
    in
    [
      phase "U(c / 0) = U(c)";
      phase "U(c / (N - N)) = U(c)";
      phase "U(c * 3037000500 * 3037000500) = U(c)";
      "program x\nreal U(2^70)\nphase P:\ndoall c = 0, 3\n  U(c) = U(c)\nend\n";
    ]
  in
  let unterminated =
    [
      "program x\nreal A(4)\nphase P:\ndo i = 0, 3\n  A(i) = 0\n";
      "program x\nreal A(4)\nphase P:\ndoall i = 0, 3\n";
      "program x\nsub s(A(4))\nphase P:\ndo i = 0, 3\n  A(i) = 0\nend\n";
      "program x\nreal A(4)\nphase P:\ndo i = 0, 3\n  A(i";
      "program";
      "";
    ]
  in
  truncations @ garbage @ spliced @ nuls @ huge @ deep @ folds @ unterminated

let test_hostile_inputs () =
  let cases = hostile_corpus () in
  Alcotest.(check bool) "corpus is substantial" true (List.length cases > 80);
  List.iteri
    (fun i src ->
      let tag = Printf.sprintf "hostile[%d]" i in
      (* Only Parse.Error may escape the raw parser. *)
      (match Parse.program src with
      | (_ : Types.program) -> ()
      | exception Parse.Error _ -> ()
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "%s: unexpected exception %s" tag
               (Printexc.to_string e)));
      (* And the total wrapper never raises at all; on failure it
         returns None with a positioned Frontend-stage diagnostic. *)
      let diags = Core.Diag.collector () in
      match Core.Pipeline.parse_program ~diags ~where:tag src with
      | Some _ -> Alcotest.(check int) (tag ^ " clean") 0 (Core.Diag.count diags)
      | None -> (
          match Core.Diag.to_list diags with
          | [ d ] ->
              Alcotest.(check string) (tag ^ " code") "FRONTEND-PARSE" d.code;
              Alcotest.(check bool) (tag ^ " positioned") true
                (match d.where with
                | Some w ->
                    String.length w > String.length tag
                    && String.sub w 0 (String.length tag) = tag
                | None -> false)
          | l ->
              Alcotest.fail
                (Printf.sprintf "%s: expected exactly one diagnostic, got %d"
                   tag (List.length l))))
    cases

(* Every shipped .dsm sample parses and analyzes. *)
let test_all_samples_parse () =
  let dir = Filename.dirname (sample "jacobi2d.dsm") in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dsm")
  in
  Alcotest.(check bool) "several samples" true (List.length files >= 10);
  List.iter
    (fun f ->
      match Parse.program_file (Filename.concat dir f) with
      | prog ->
          Alcotest.(check bool) (f ^ " has phases") true (prog.phases <> [])
      | exception Parse.Error { line; message } ->
          Alcotest.fail (Printf.sprintf "%s:%d: %s" f line message))
    files

let () =
  Alcotest.run "frontend"
    [
      ( "parse",
        [
          Alcotest.test_case "tfft2 structure" `Quick test_parse_tfft2;
          Alcotest.test_case "tfft2 semantics = DSL" `Quick test_tfft2_semantics;
          Alcotest.test_case "tfft2 descriptor" `Quick test_tfft2_descriptor;
          Alcotest.test_case "file + pipeline" `Quick test_parse_file;
          Alcotest.test_case "step loops and sinks" `Quick test_step_and_sink;
        ] );
      ( "errors",
        [
          Alcotest.test_case "diagnostics" `Quick test_errors;
          Alcotest.test_case "lexer" `Quick test_lexer_tokens;
          Alcotest.test_case "hostile inputs" `Quick test_hostile_inputs;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "registry codes" `Quick test_roundtrip_registry;
          Alcotest.test_case "fuzz programs" `Quick test_roundtrip_fuzz;
          Alcotest.test_case "all shipped samples parse" `Quick
            test_all_samples_parse;
          Alcotest.test_case "sub/call reshaping" `Quick test_sub_call;
          Alcotest.test_case "sub/call errors" `Quick test_sub_errors;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
        ] );
    ]
