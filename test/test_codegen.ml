(* Tests for the SPMD code generator: structural properties of the
   emitted text against the plan and communication schedule. *)

open Symbolic

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let generate name size h =
  let e = Codes.Registry.find name in
  let t = Core.Pipeline.run e.program ~env:(e.env_of_size size) ~h in
  (t, Codegen.Spmd.generate t.lcg t.plan t.machine)

let test_phase_subroutines () =
  Probe.with_seed 90 (fun () ->
      let t, code = generate "tfft2" 3 4 in
      (* one subroutine per phase, in order *)
      List.iter
        (fun (ph : Ir.Types.phase) ->
          Alcotest.(check bool)
            ("subroutine for " ^ ph.phase_name)
            true
            (contains code ("subroutine phase_" ^ ph.phase_name ^ "(me)")))
        t.prog.phases;
      Alcotest.(check int) "eight subroutines" 8
        (count_substring code "end subroutine"))

let test_comm_calls_match_schedule () =
  Probe.with_seed 91 (fun () ->
      let t, code = generate "tfft2" 4 4 in
      let sched = Dsmsim.Comm.generate t.lcg t.plan in
      Alcotest.(check int) "redistribute calls"
        (List.length (Dsmsim.Comm.redistributions sched))
        (count_substring code "call redistribute_");
      Alcotest.(check int) "frontier calls"
        (List.length (Dsmsim.Comm.frontiers sched))
        (count_substring code "call frontier_update_"))

let test_cyclic_sweep_and_privatized () =
  Probe.with_seed 92 (fun () ->
      let t, code = generate "tfft2" 3 4 in
      (* the F8 chunk (2Q * p7) appears in its CYCLIC comment *)
      let p8 = t.plan.chunk.(7) in
      Alcotest.(check bool) "F8 cyclic chunk" true
        (contains code (Printf.sprintf "CYCLIC(%d) chunks of mine" p8));
      (* the privatized workspace is called out *)
      Alcotest.(check bool) "privatization note" true
        (contains code "Y privatized"))

let test_layout_annotations () =
  Probe.with_seed 93 (fun () ->
      let _, code = generate "jacobi2d" 4 4 in
      Alcotest.(check bool) "halo annotated" true
        (contains code "ghost zone");
      let _, code2 = generate "adi" 4 4 in
      (* two layouts for U: the column epoch and the row epoch *)
      Alcotest.(check bool) "adi redistributes" true
        (contains code2 "call redistribute_U"))

(* The shared addressing compiler's error contract: the enumerator
   raises lazily, at the first evaluation that needs the missing
   binding; the executable compiler refuses the phase up front. *)
let unbound_program ~reached =
  Frontend.Parse.program
    (Printf.sprintf
       "program t\n\
        param N = 1..8\n\
        param M = 1..8\n\
        real A(N^2)\n\n\
        phase P:\n\
        doall i = 0, N - 1\n\
        %s\n\
        A(i) = A(i) work 1\n\
        end\n"
       (if reached then "A(i + M) = A(i) work 1"
        else "do j = 1, 0\nA(i + M) = A(i) work 1\nend"))

let env_without_m = Env.of_list [ ("N", 4) ]

let events prog =
  let n = ref 0 in
  Ir.Enumerate.iter prog env_without_m (List.hd prog.Ir.Types.phases)
    ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work:_ -> incr n);
  !n

let test_zero_trip_unbound () =
  Alcotest.(check int)
    "zero-trip loop never evaluates M" 8
    (events (unbound_program ~reached:false))

let test_reached_unbound () =
  match events (unbound_program ~reached:true) with
  | n -> Alcotest.failf "expected Env.Unbound, got %d events" n
  | exception Env.Unbound v -> Alcotest.(check string) "names M" "M" v

let test_compile_refuses_unbound () =
  let plan =
    { Ilp.Distribution.h = 2; chunk = [| 1 |]; layouts = []; privatized = [] }
  in
  List.iter
    (fun reached ->
      let prog = unbound_program ~reached in
      match
        Codegen.Compile.phase prog env_without_m plan 0
          (List.hd prog.Ir.Types.phases)
      with
      | _ -> Alcotest.fail "expected Unsupported"
      | exception Codegen.Compile.Unsupported msg ->
          Alcotest.(check string) "message" "parameter M has no binding" msg)
    [ false; true ]

(* The parallel loop's own-chunk walk: over processors 0..h-1 the
   walks partition [lo, hi] exactly as proc_of_iteration assigns it -
   each iteration walked once, by its owner, each walk ascending. *)
let own_chunks_partition (lo, hi, chunk, h) =
  let walked = Hashtbl.create 64 in
  let ascending = ref true in
  for me = 0 to h - 1 do
    let last = ref min_int in
    Ilp.Distribution.own_chunks ~chunk ~h ~me ~lo ~hi (fun a b ->
        if a > b || a <= !last then ascending := false;
        last := b;
        for i = a to b do
          Hashtbl.add walked i me
        done)
  done;
  let owners_ok = ref true in
  for i = lo to hi do
    let owner = Ilp.Distribution.proc_of_iteration ~chunk ~h i in
    match Hashtbl.find_all walked i with
    | [ p ] -> if p <> owner then owners_ok := false
    | _ -> owners_ok := false
  done;
  let inside = Hashtbl.fold (fun i _ ok -> ok && lo <= i && i <= hi) walked true in
  !ascending && !owners_ok && inside

let prop_own_chunks =
  QCheck.Test.make ~count:3000 ~name:"own chunks = proc_of_iteration"
    QCheck.(
      quad (int_range (-70) 70) (int_range (-5) 90) (int_range 0 40)
        (int_range 1 9))
    (fun (lo, len, chunk, h) -> own_chunks_partition (lo, lo + len, chunk, h))

let test_own_chunks_cases () =
  List.iter
    (fun (label, case) ->
      Alcotest.(check bool) label true (own_chunks_partition case))
    [
      ("lo not aligned to a chunk", (3, 37, 4, 2));
      ("chunk above the trip count", (0, 5, 40, 2));
      ("h above the number of blocks", (0, 10, 4, 9));
      ("empty loop", (5, 4, 3, 2));
      ("negative lo", (-13, 6, 4, 3));
      ("negative bounds, chunk 1", (-9, -2, 1, 4));
      ("chunk 0 is chunk 1", (0, 7, 0, 3));
    ]

let () =
  Alcotest.run "codegen"
    [
      ( "spmd",
        [
          Alcotest.test_case "phase subroutines" `Quick test_phase_subroutines;
          Alcotest.test_case "comm calls = schedule" `Quick
            test_comm_calls_match_schedule;
          Alcotest.test_case "cyclic + privatized" `Quick
            test_cyclic_sweep_and_privatized;
          Alcotest.test_case "layout annotations" `Quick test_layout_annotations;
        ] );
      ( "compile",
        [
          Alcotest.test_case "zero-trip unbound" `Quick test_zero_trip_unbound;
          Alcotest.test_case "reached unbound" `Quick test_reached_unbound;
          Alcotest.test_case "refuses unbound" `Quick
            test_compile_refuses_unbound;
          Alcotest.test_case "own chunks: edge cases" `Quick
            test_own_chunks_cases;
          QCheck_alcotest.to_alcotest prop_own_chunks;
        ] );
    ]
