(* Tests for the domain driver behind `dsmloc batch` and the fuzz
   campaign (Core.Jobs): submission-order determinism whatever the
   worker count, a raising job failing alone, merged metrics equal to
   the sum of the per-job snapshots, and the domain-local analysis
   state it relies on: two analyses at once on two domains match each
   run alone, and environments built on different domains never share
   an id. *)

module J = Core.Jobs
module M = Symbolic.Metrics

(* Job body shared by the determinism tests: full pipeline on a
   registry kernel, rendered to the same report the CLI prints. *)
let analyze name =
  let e = Codes.Registry.find name in
  let env = e.env_of_size (min e.default_size 4) in
  let t = Core.Pipeline.run e.program ~env ~h:4 in
  Format.asprintf "%a" Core.Pipeline.report t

let values outcomes =
  List.map
    (function J.Done d -> d.value | J.Failed reason -> Alcotest.failf "job failed: %s" reason)
    outcomes

(* counter total over the per-job snapshots, for cross-checking the
   driver's own merge *)
let summed name outcomes =
  List.fold_left
    (fun acc -> function
      | J.Done d -> acc + Option.value ~default:0 (List.assoc_opt name d.metrics.M.counters)
      | J.Failed _ -> acc)
    0 outcomes

let prop_batch_deterministic =
  QCheck.Test.make ~name:"shuffled batch: 1/2/4 workers byte-identical"
    ~count:3
    QCheck.(
      make ~print:(fun l -> String.concat "," l)
        Gen.(
          let* names = shuffle_l Codes.Registry.names in
          let* k = int_range 1 3 in
          return (List.filteri (fun i _ -> i < k) names)))
    (fun names ->
      let runs =
        List.map
          (fun workers ->
            let outcomes, merged = J.map ~workers ~f:analyze names in
            (values outcomes, merged, outcomes))
          [ 1; 2; 4 ]
      in
      let reports1, merged1, outcomes1 = List.hd runs in
      List.iter
        (fun (reports, merged, _) ->
          if reports <> reports1 then
            QCheck.Test.fail_report "reports differ across worker counts";
          if
            List.sort compare merged.M.counters
            <> List.sort compare merged1.M.counters
          then QCheck.Test.fail_report "merged counters differ")
        (List.tl runs);
      (* merged counter totals = sum of the per-job snapshots *)
      List.for_all
        (fun (name, total) -> total = summed name outcomes1)
        merged1.M.counters)

let test_merged_totals () =
  let c = M.counter "test.jobs.ticks" in
  let outcomes, merged =
    J.map ~workers:3 ~f:(fun k -> M.incr c ~by:k) [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (function
      | J.Done d ->
          Alcotest.(check bool) "a job counts only its own ticks" true
            (List.mem (List.assoc "test.jobs.ticks" d.metrics.M.counters) [ 1; 2; 3; 4; 5 ])
      | J.Failed r -> Alcotest.failf "job failed: %s" r)
    outcomes;
  Alcotest.(check int) "merged = sum of the snapshots" 15
    (List.assoc "test.jobs.ticks" merged.M.counters);
  Alcotest.(check int) "merged = summed" (summed "test.jobs.ticks" outcomes)
    (List.assoc "test.jobs.ticks" merged.M.counters)

(* ------------------------------------------------------------------ *)

let test_exception_isolated () =
  (* an uncaught exception fails its job alone, without a retry *)
  let calls = Atomic.make 0 in
  let f j =
    Atomic.incr calls;
    if j = 0 then failwith "boom" else j
  in
  let outcomes, _ = J.map ~workers:2 ~f [ 0; 1; 2 ] in
  Alcotest.(check int) "one run per job" 3 (Atomic.get calls);
  (match List.hd outcomes with
  | J.Failed reason ->
      Alcotest.(check bool) "exception text captured" true
        (String.length reason >= 4
        && List.exists
             (fun k -> String.sub reason k 4 = "boom")
             (List.init (String.length reason - 3) Fun.id))
  | J.Done _ -> Alcotest.fail "raising job cannot succeed");
  Alcotest.(check (list int)) "the other jobs finished" [ 1; 2 ]
    (values (List.tl outcomes))

let test_stream_order () =
  (* the stream callback fires in submission order even though later
     jobs finish first *)
  let f j =
    if j = 0 then Unix.sleepf 0.05;
    j
  in
  let seen = ref [] in
  let outcomes, _ =
    J.map ~workers:4 ~stream:(fun i _ -> seen := i :: !seen) ~f [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "stream in submission order" [ 0; 1; 2; 3 ]
    (List.rev !seen);
  Alcotest.(check (list int)) "all outcomes" [ 0; 1; 2; 3 ] (values outcomes)

let test_empty_and_single () =
  let f j = j * 2 in
  let outcomes, merged = J.map ~workers:4 ~f [] in
  Alcotest.(check int) "empty batch" 0 (List.length outcomes);
  Alcotest.(check int) "empty merge" 0 (List.length merged.M.counters);
  let outcomes, _ = J.map ~workers:8 ~f [ 21 ] in
  Alcotest.(check (list int)) "single job" [ 42 ] (values outcomes)

(* A job domain starts from its parent's mode and skew, and what it
   sets stays on its own domain. *)
let test_inherited_settings () =
  let open Symbolic.Lattice in
  let skew = test_card_skew () and mode = mode_cell () in
  let saved = (!skew, !mode) in
  Fun.protect
    ~finally:(fun () ->
      skew := fst saved;
      mode := snd saved)
    (fun () ->
      skew := 3;
      mode := Symbolic_only;
      let f () =
        let seen = (!(test_card_skew ()), !(mode_cell ())) in
        test_card_skew () := 0;
        mode_cell () := Auto;
        seen
      in
      let outcomes, _ = J.map ~f [ () ] in
      Alcotest.(check bool) "inherited" true (values outcomes = [ (3, Symbolic_only) ]);
      Alcotest.(check int) "the job's skew stayed on its domain" 3 !skew;
      Alcotest.(check bool) "the job's mode stayed on its domain" true (!mode = Symbolic_only))

(* ------------------------------------------------------------------ *)
(* Domain-local analysis state *)

(* The report and the metric numbers of one analysis: the cells it
   touched (another domain may have registered more), timers by call
   count, since their seconds are wall time. *)
let observed name =
  Symbolic.Probe.with_seed 7 (fun () ->
      let report = analyze name in
      let s = M.snapshot () in
      ( report,
        List.filter (fun (_, v) -> v <> 0) s.M.counters,
        List.filter (fun (_, (h, m)) -> h + m > 0) s.M.caches,
        List.filter_map
          (fun (n, (calls, _)) -> if calls > 0 then Some (n, calls) else None)
          s.M.timers ))

(* Each of [names] on a domain of its own, all started together. *)
let at_once names =
  let ready = Atomic.make 0 in
  let n = List.length names in
  names
  |> List.map (fun name ->
         Domain.spawn (fun () ->
             Atomic.incr ready;
             while Atomic.get ready < n do
               Domain.cpu_relax ()
             done;
             observed name))
  |> List.map Domain.join

let test_concurrent_analyses () =
  let names = [ "jacobi2d"; "tfft2" ] in
  let alone = List.map (fun name -> List.hd (at_once [ name ])) names in
  let together = at_once names in
  List.iter2
    (fun name ((r1, c1, k1, t1), (r2, c2, k2, t2)) ->
      Alcotest.(check string) (name ^ ": report") r1 r2;
      Alcotest.(check (list (pair string int))) (name ^ ": counters") c1 c2;
      Alcotest.(check (list (pair string (pair int int)))) (name ^ ": caches") k1 k2;
      Alcotest.(check (list (pair string int))) (name ^ ": timer calls") t1 t2)
    names
    (List.combine alone together)

let () =
  Alcotest.run "jobs"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_batch_deterministic;
          Alcotest.test_case "merged totals" `Quick test_merged_totals;
        ] );
      ( "crash-isolation",
        [ Alcotest.test_case "exception isolated" `Quick test_exception_isolated ] );
      ( "plumbing",
        [
          Alcotest.test_case "stream order" `Quick test_stream_order;
          Alcotest.test_case "empty and single" `Quick test_empty_and_single;
          Alcotest.test_case "inherited settings" `Quick test_inherited_settings;
        ] );
      ( "domain-local",
        [
          Alcotest.test_case "two analyses at once" `Quick test_concurrent_analyses;
        ] );
    ]
