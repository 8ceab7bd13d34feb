(* Tests for the robustness layer: deterministic fault injection with
   bounded retry, the dataflow validator catching un-retried corruption,
   and the pipeline's degradation ladder (total analysis with recorded
   diagnostics instead of crashes). *)

open Symbolic
module Validate = Exec.Validate
open Dsmsim

let pipeline entry_name size h =
  let e = Codes.Registry.find entry_name in
  let env = e.env_of_size size in
  Core.Pipeline.run e.program ~env ~h

(* ------------------------------------------------------------------ *)
(* Fault.parse / spec *)

let test_parse () =
  (match Fault.parse "42:0.5" with
  | Ok s ->
      Alcotest.(check int) "seed" 42 s.seed;
      Alcotest.(check (float 1e-9)) "drop" 0.5 s.drop;
      Alcotest.(check (float 1e-9)) "dup" 0.0 s.dup
  | Error e -> Alcotest.fail e);
  (match Fault.parse "7:0.1:0.2:0.3" with
  | Ok s ->
      Alcotest.(check (float 1e-9)) "drop" 0.1 s.drop;
      Alcotest.(check (float 1e-9)) "dup" 0.2 s.dup;
      Alcotest.(check (float 1e-9)) "trunc" 0.3 s.trunc
  | Error e -> Alcotest.fail e);
  let bad s =
    match Fault.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "x:0.5";
  bad "42:1.5";
  bad "42";
  bad "42:0.1:0.2"

(* ------------------------------------------------------------------ *)
(* Fault.apply semantics on a hand-built schedule *)

let one_message_sched words =
  [
    Comm.Frontier
      {
        array = "A";
        after_phase = 0;
        messages =
          [ { Comm.src = 0; dst = 1; ranges = [ (0, words - 1) ]; words } ];
      };
  ]

let test_apply_certain_outcomes () =
  (* drop = 1: the message is lost and the empty event removed *)
  let delivered, st =
    Fault.apply (Fault.spec ~drop:1.0 ~seed:1 ()) (one_message_sched 10)
  in
  Alcotest.(check int) "all dropped" 1 st.dropped;
  Alcotest.(check int) "unrecovered" 1 (Fault.unrecovered st);
  Alcotest.(check bool) "event removed" true (delivered = []);
  (* dup = 1: two copies delivered *)
  let delivered, st =
    Fault.apply (Fault.spec ~dup:1.0 ~seed:1 ()) (one_message_sched 10)
  in
  Alcotest.(check int) "duplicated" 1 st.duplicated;
  (match delivered with
  | [ Comm.Frontier f ] ->
      Alcotest.(check int) "two copies" 2 (List.length f.messages)
  | _ -> Alcotest.fail "expected one frontier event");
  (* trunc = 1: half the words survive *)
  let delivered, st =
    Fault.apply (Fault.spec ~trunc:1.0 ~seed:1 ()) (one_message_sched 10)
  in
  Alcotest.(check int) "truncated" 1 st.truncated;
  (match delivered with
  | [ Comm.Frontier { messages = [ m ]; _ } ] ->
      Alcotest.(check int) "half the words" 5 m.words;
      Alcotest.(check bool) "prefix range" true (m.ranges = [ (0, 4) ])
  | _ -> Alcotest.fail "expected one truncated message");
  (* a 1-word truncation has no deliverable prefix: counts as a drop *)
  let delivered, st =
    Fault.apply (Fault.spec ~trunc:1.0 ~seed:1 ()) (one_message_sched 1)
  in
  Alcotest.(check int) "1-word trunc drops" 1 st.dropped;
  Alcotest.(check bool) "nothing delivered" true (delivered = [])

let test_apply_deterministic () =
  let t = pipeline "jacobi2d" 4 4 in
  let sched = Comm.generate t.lcg t.plan in
  let spec = Fault.spec ~drop:0.3 ~dup:0.1 ~trunc:0.1 ~seed:123 () in
  let d1, s1 = Fault.apply spec ~retries:2 sched in
  let d2, s2 = Fault.apply spec ~retries:2 sched in
  Alcotest.(check bool) "same delivery" true (d1 = d2);
  Alcotest.(check bool) "same stats" true (s1 = s2);
  Alcotest.(check int) "every message drawn" (Comm.message_count sched)
    s1.messages;
  (* a different seed perturbs differently *)
  let d3, _ = Fault.apply { spec with seed = 124 } ~retries:2 sched in
  Alcotest.(check bool) "seed matters" true (d1 <> d3)

(* ------------------------------------------------------------------ *)
(* Acceptance: Validate flags un-retried corruption; bounded retry
   recovers it. *)

let validate_under_faults ~seed ~drop ~retries =
  let t = pipeline "jacobi2d" 4 4 in
  let rounds = if t.prog.repeats then 2 else 1 in
  let sched = Comm.generate t.lcg t.plan in
  let delivered, st = Fault.apply (Fault.spec ~drop ~seed ()) ~retries sched in
  (Validate.run ~rounds ~sched:delivered t.lcg t.plan, st)

let test_validate_catches_corruption () =
  (* seed chosen so that drops actually hit; no retry budget *)
  let r, st = validate_under_faults ~seed:42 ~drop:0.5 ~retries:0 in
  Alcotest.(check bool) "messages were lost" true (st.dropped > 0);
  Alcotest.(check int) "no recovery without retries" 0 st.recovered;
  Alcotest.(check bool) "validator flags stale reads" true (r.stale > 0);
  Alcotest.(check bool) "ok is false" false (Validate.ok r)

let test_retry_recovers () =
  let r, st = validate_under_faults ~seed:1 ~drop:0.5 ~retries:20 in
  Alcotest.(check bool) "faults occurred" true (st.recovered > 0);
  Alcotest.(check int) "all recovered" 0 (Fault.unrecovered st);
  Alcotest.(check int) "validator passes" 0 r.stale;
  Alcotest.(check bool) "retry log non-empty" true (st.retries <> []);
  Alcotest.(check bool) "attempts accounted" true (Fault.total_attempts st > 0)

let test_duplication_harmless () =
  (* duplicated delivery is idempotent for the versioned validator *)
  let t = pipeline "jacobi2d" 4 4 in
  let rounds = if t.prog.repeats then 2 else 1 in
  let sched = Comm.generate t.lcg t.plan in
  let delivered, st =
    Fault.apply (Fault.spec ~dup:1.0 ~seed:3 ()) ~retries:0 sched
  in
  Alcotest.(check int) "all duplicated" (Comm.message_count sched)
    st.duplicated;
  let r = Validate.run ~rounds ~sched:delivered t.lcg t.plan in
  Alcotest.(check int) "no stale reads" 0 r.stale

(* ------------------------------------------------------------------ *)
(* Exec integration: retry backoff is priced into parallel time *)

let test_exec_retry_accounting () =
  let t = pipeline "jacobi2d" 4 4 in
  let clean = Core.Pipeline.simulate t in
  Alcotest.(check (float 1e-9)) "no faults, no retry time" 0.0 clean.retry_time;
  Alcotest.(check bool) "no stats" true (clean.fault_stats = None);
  let faulty =
    Core.Pipeline.simulate ~faults:(Fault.spec ~drop:0.5 ~seed:1 ()) ~retries:20
      t
  in
  (match faulty.fault_stats with
  | None -> Alcotest.fail "expected fault stats"
  | Some st ->
      Alcotest.(check bool) "something recovered" true (st.recovered > 0);
      Alcotest.(check int) "nothing lost" 0 (Fault.unrecovered st));
  Alcotest.(check bool) "backoff priced" true (faulty.retry_time > 0.0);
  (* full recovery means same traffic plus the resend overhead *)
  Alcotest.(check (float 1e-6)) "par time = clean + retries"
    (clean.par_time +. faulty.retry_time)
    faulty.par_time;
  (* the fault summary lands in the pipeline diagnostics *)
  Alcotest.(check bool) "FAULT-INJECTED recorded" true
    (List.exists
       (fun (d : Core.Diag.t) -> d.code = "FAULT-INJECTED")
       (Core.Pipeline.diagnostics t))

(* ------------------------------------------------------------------ *)
(* Degradation ladder *)

let test_registry_codes_clean () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let env = e.env_of_size e.default_size in
      let t = Core.Pipeline.run e.program ~env ~h:4 in
      Alcotest.(check bool)
        (e.name ^ " no error diagnostics")
        false
        (Core.Pipeline.degraded t))
    Codes.Registry.all

(* A quadratic subscript on the parallel loop is outside the ARD
   grammar: descriptor construction degrades the reference to the
   whole-array descriptor and the pipeline must still produce a plan. *)
let quad_program =
  Ir.Build.(
    program ~name:"quad"
      ~params:(Assume.of_list [ ("N", Assume.Int_range (8, 64)) ])
      ~arrays:[ array "A" [ var "N" * var "N" ]; array "B" [ var "N" ] ]
      [
        phase "QUAD"
          (doall "i" ~lo:(int 0)
             ~hi:(var "N" - int 1)
             [ assign [ read "A" [ var "i" * var "i" ]; write "B" [ var "i" ] ] ]);
        phase "SUM"
          (doall "i" ~lo:(int 0)
             ~hi:(var "N" - int 1)
             [ assign [ read "B" [ var "i" ]; write "B" [ var "i" ] ] ]);
      ])

let test_unsupported_subscript_degrades () =
  let env = Env.add "N" 16 Env.empty in
  let t = Core.Pipeline.run quad_program ~env ~h:4 in
  (* a full plan exists... *)
  Alcotest.(check int) "chunk per phase" 2 (Array.length t.plan.chunk);
  (* ...the degraded reference was diagnosed... *)
  Alcotest.(check bool) "DESC-WHOLE-ARRAY recorded" true
    (List.exists
       (fun (d : Core.Diag.t) -> d.code = "DESC-WHOLE-ARRAY")
       (Core.Pipeline.diagnostics t));
  (* ...the degraded node's pd is marked inexact... *)
  let inexact =
    List.exists
      (fun (g : Locality.Lcg.graph) ->
        List.exists
          (fun (n : Locality.Lcg.node) -> not n.pd.Descriptor.Pd.exact)
          g.nodes)
      t.lcg.graphs
  in
  Alcotest.(check bool) "inexact node present" true inexact;
  (* ...no edge incident to an inexact node claims locality... *)
  List.iter
    (fun (g : Locality.Lcg.graph) ->
      let nodes = Array.of_list g.nodes in
      List.iter
        (fun (e : Locality.Lcg.edge) ->
          let exact n = nodes.(n).Locality.Lcg.pd.Descriptor.Pd.exact in
          if not (exact e.src && exact e.dst) then
            Alcotest.(check bool)
              "degraded endpoints never L" true
              (e.label <> Locality.Table1.L))
        g.edges)
    t.lcg.graphs;
  (* ...and the program still simulates and validates end to end *)
  let r = Core.Pipeline.simulate t in
  Alcotest.(check bool) "simulates" true (r.par_time > 0.0);
  let v = Validate.run t.lcg t.plan in
  Alcotest.(check int) "dataflow still sound" 0 v.stale

let test_max_errors_cap () =
  let d = Core.Diag.collector ~max_errors:2 () in
  let add () =
    Core.Diag.add d ~severity:Core.Diag.Error ~stage:Core.Diag.Solve ~code:"X"
      "boom"
  in
  add ();
  add ();
  Alcotest.check_raises "cap enforced" (Core.Diag.Too_many_errors 2) add;
  (* warnings never count against the cap *)
  Core.Diag.add d ~severity:Core.Diag.Warning ~stage:Core.Diag.Solve ~code:"Y"
    "fine";
  Alcotest.(check int) "errors counted" 2 (Core.Diag.errors d)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "certain outcomes" `Quick
            test_apply_certain_outcomes;
          Alcotest.test_case "deterministic" `Quick test_apply_deterministic;
        ] );
      ( "validate",
        [
          Alcotest.test_case "catches corruption" `Quick
            test_validate_catches_corruption;
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
          Alcotest.test_case "duplication harmless" `Quick
            test_duplication_harmless;
        ] );
      ( "exec",
        [ Alcotest.test_case "retry accounting" `Quick test_exec_retry_accounting ] );
      ( "degradation",
        [
          Alcotest.test_case "registry codes clean" `Quick
            test_registry_codes_clean;
          Alcotest.test_case "unsupported subscript" `Quick
            test_unsupported_subscript_degrades;
          Alcotest.test_case "max-errors cap" `Quick test_max_errors_cap;
        ] );
    ]
