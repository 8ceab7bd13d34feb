(* Unit tests for the Core.Metrics registry: interning, counters,
   reentrancy-safe timers, cache statistics, reset semantics, the
   hand-rolled JSON emitter (validated by a small recursive-descent
   JSON syntax checker, since the project deliberately has no JSON
   dependency), and per-phase reuse in the phase.analyze store. *)

module M = Core.Metrics

(* ------------------------------------------------------------------ *)
(* A minimal RFC 8259 syntax checker. *)

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos >= n then fail () else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c = if peek () <> c then fail () else advance () in
  let digits () =
    let k = ref 0 in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      advance ();
      incr k
    done;
    if !k = 0 then fail ()
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
          | 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
                | _ -> fail ()
              done
          | _ -> fail ());
          go ()
      | c when Char.code c < 0x20 -> fail ()
      | _ ->
          advance ();
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> String.iter expect "true"
    | 'f' -> String.iter expect "false"
    | 'n' -> String.iter expect "null"
    | '-' | '0' .. '9' ->
        if peek () = '-' then advance ();
        (* leading zeros are forbidden: int part is 0 or [1-9][0-9]* *)
        (match peek () with
        | '0' -> (
            advance ();
            match if !pos < n then Some s.[!pos] else None with
            | Some '0' .. '9' -> fail ()
            | _ -> ())
        | '1' .. '9' -> digits ()
        | _ -> fail ());
        if !pos < n && s.[!pos] = '.' then begin
          advance ();
          digits ()
        end;
        if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
          advance ();
          if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then advance ();
          digits ()
        end
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            elems ()
        | ']' -> advance ()
        | _ -> fail ()
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_json_checker () =
  List.iter
    (fun (ok, s) ->
      Alcotest.(check bool) (Printf.sprintf "%S" s) ok (json_valid s))
    [
      (true, "{}");
      (true, "[1, 2.5, -3e4, \"a\\nb\", null, true, [], {\"k\":false}]");
      (true, "{\"a\":{\"b\":[0.25]}}");
      (false, "{");
      (false, "{\"a\":}");
      (false, "[1,]");
      (false, "01");
      (false, "1.");
      (false, "\"unterminated");
      (false, "{} trailing");
      (false, "nul");
    ]

(* ------------------------------------------------------------------ *)
(* Registry semantics.  Cell names are test-local ("t.*") so the suite
   never collides with the cells the library itself registers. *)

let test_interning () =
  let a = M.counter "t.interned" in
  let b = M.counter "t.interned" in
  M.incr a;
  M.incr b ~by:4;
  let snap = M.snapshot () in
  Alcotest.(check int) "one cell, shared count" 5
    (List.assoc "t.interned" snap.counters)

let test_kind_mismatch () =
  ignore (M.counter "t.kinded");
  Alcotest.check_raises "timer over counter name"
    (Invalid_argument "Metrics: cell kind mismatch for t.kinded") (fun () ->
      ignore (M.timer "t.kinded"))

let test_timer_basic () =
  let t = M.timer "t.timer" in
  let r = M.with_timer t (fun () -> 41 + 1) in
  Alcotest.(check int) "value returned" 42 r;
  M.add_time t 0.5;
  let snap = M.snapshot () in
  let calls, secs = List.assoc "t.timer" snap.timers in
  Alcotest.(check int) "two calls" 2 calls;
  Alcotest.(check bool) "external time recorded" true (secs >= 0.5)

let test_timer_reentrant () =
  let t = M.timer "t.reentrant" in
  (* burn measurable wall time in the inner frame only *)
  let burn () =
    let x = ref 0.0 in
    for k = 1 to 2_000_000 do
      x := !x +. float_of_int k
    done;
    !x
  in
  let t0 = M.now () in
  let _ = M.with_timer t (fun () -> M.with_timer t burn) in
  let elapsed = M.now () -. t0 in
  let snap = M.snapshot () in
  let calls, secs = List.assoc "t.reentrant" snap.timers in
  Alcotest.(check int) "both frames counted as calls" 2 calls;
  (* double-billing would record ~2x the elapsed wall time *)
  Alcotest.(check bool)
    (Printf.sprintf "no double-billing (recorded %.4fs, elapsed %.4fs)" secs
       elapsed)
    true
    (secs <= (elapsed *. 1.5) +. 0.01)

let test_timer_exception () =
  let t = M.timer "t.raises" in
  (try M.with_timer t (fun () -> failwith "boom") with Failure _ -> ());
  let snap = M.snapshot () in
  let calls, _ = List.assoc "t.raises" snap.timers in
  Alcotest.(check int) "failed call still counted" 1 calls

let test_cache_stats () =
  let c = M.cache "t.cache" in
  Alcotest.(check (float 1e-9)) "empty rate" 0.0 (M.hit_rate c);
  M.hit c;
  M.hit c;
  M.hit c;
  M.miss c;
  Alcotest.(check int) "lookups" 4 (M.lookups c);
  Alcotest.(check (float 1e-9)) "rate 3/4" 0.75 (M.hit_rate c)

let test_histogram () =
  let h = M.histogram "t.hist" in
  List.iter (M.observe h) [ 4.0; 1.0; 7.0 ];
  let snap = M.snapshot () in
  let n, sum, min_v, max_v = List.assoc "t.hist" snap.histograms in
  Alcotest.(check int) "n" 3 n;
  Alcotest.(check (float 1e-9)) "sum" 12.0 sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 min_v;
  Alcotest.(check (float 1e-9)) "max" 7.0 max_v

let test_reset () =
  let c = M.counter "t.resettable" in
  M.incr c ~by:9;
  M.reset ();
  let snap = M.snapshot () in
  Alcotest.(check int) "zeroed" 0 (List.assoc "t.resettable" snap.counters);
  Alcotest.(check bool) "registration survives" true
    (List.mem_assoc "t.resettable" snap.counters)

let test_clearers () =
  (* every store self-registers, so a global clear empties this one *)
  let store : int Core.Artifact.store = Core.Artifact.store "t.artifact" in
  let k = Core.Artifact.Key.int 1 in
  Alcotest.(check int) "computed" 7 (Core.Artifact.find store k (fun () -> 7));
  Alcotest.(check int) "cached" 7 (Core.Artifact.find store k (fun () -> 8));
  Core.Artifact.clear_all ();
  Alcotest.(check int) "flushed by clear_all" 9
    (Core.Artifact.find store k (fun () -> 9))

(* ------------------------------------------------------------------ *)
(* JSON emission *)

let test_json_primitives () =
  Alcotest.(check string) "nan" "null" (M.json_float Float.nan);
  Alcotest.(check string) "inf" "null" (M.json_float Float.infinity);
  Alcotest.(check string) "integral" "3" (M.json_float 3.0);
  Alcotest.(check bool) "fraction parses" true
    (json_valid (M.json_float 0.12345));
  Alcotest.(check string) "escapes" "a\\\"b\\\\c\\n" (M.json_escape "a\"b\\c\n")

let test_snapshot_json_valid () =
  (* exercise one cell of every kind, then validate the whole document
     (which also contains all the library's own cells) *)
  M.incr (M.counter "t.json-counter");
  M.add_time (M.timer "t.json-timer") 0.25;
  M.observe (M.histogram "t.json-hist") 2.0;
  M.hit (M.cache "t.json-cache");
  let doc = M.to_json (M.snapshot ()) in
  Alcotest.(check bool) "valid JSON" true (json_valid doc);
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go k = k + nn <= nh && (String.sub hay k nn = needle || go (k + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle doc))
    [ "t.json-counter"; "t.json-timer"; "t.json-hist"; "t.json-cache";
      "hit_rate" ]

(* ------------------------------------------------------------------ *)
(* Parsing and merging: the worker side of the batch pool serialises
   snapshots with [to_json]; the parent parses them back with [of_json]
   and folds them with [merge]. *)

let test_json_roundtrip () =
  let snap =
    {
      M.counters = [ ("r.c", 7); ("r.zero", 0) ];
      timers = [ ("r.t", (3, 0.625)) ];
      histograms =
        [ ("r.h", (2, 9.5, 1.25, 8.25)); ("r.empty", (0, 0.0, 0.0, 0.0)) ];
      caches = [ ("r.$", (5, 2)) ];
    }
  in
  let doc = M.to_json snap in
  Alcotest.(check bool) "emitter output valid" true (json_valid doc);
  let back = M.of_json doc in
  Alcotest.(check int) "counter" 7 (List.assoc "r.c" back.counters);
  Alcotest.(check int) "zero counter kept" 0
    (List.assoc "r.zero" back.counters);
  let calls, secs = List.assoc "r.t" back.timers in
  Alcotest.(check int) "timer calls" 3 calls;
  Alcotest.(check (float 1e-9)) "timer seconds" 0.625 secs;
  let n, sum, mn, mx = List.assoc "r.h" back.histograms in
  Alcotest.(check int) "hist n" 2 n;
  Alcotest.(check (float 1e-9)) "hist sum" 9.5 sum;
  Alcotest.(check (float 1e-9)) "hist min" 1.25 mn;
  Alcotest.(check (float 1e-9)) "hist max" 8.25 mx;
  Alcotest.(check (pair int int)) "cache" (5, 2) (List.assoc "r.$" back.caches)

let test_of_json_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (match M.of_json s with
        | _ -> false
        | exception M.Parse_error _ -> true))
    [ ""; "{"; "[]"; "{\"counters\":[1]}"; "{\"counters\":{\"x\":}}";
      "{} trailing" ]

let test_merge_sums () =
  let a =
    {
      M.counters = [ ("m.x", 2); ("m.only-a", 1) ];
      timers = [ ("m.t", (1, 0.5)) ];
      histograms = [ ("m.h", (2, 6.0, 1.0, 5.0)) ];
      caches = [ ("m.$", (3, 1)) ];
    }
  in
  let b =
    {
      M.counters = [ ("m.x", 5); ("m.only-b", 4) ];
      timers = [ ("m.t", (2, 0.25)) ];
      histograms = [ ("m.h", (1, 9.0, 9.0, 9.0)) ];
      caches = [ ("m.$", (1, 6)) ];
    }
  in
  let m = M.merge a b in
  Alcotest.(check int) "shared counter sums" 7 (List.assoc "m.x" m.counters);
  Alcotest.(check int) "a-only kept" 1 (List.assoc "m.only-a" m.counters);
  Alcotest.(check int) "b-only kept" 4 (List.assoc "m.only-b" m.counters);
  let calls, secs = List.assoc "m.t" m.timers in
  Alcotest.(check int) "timer calls add" 3 calls;
  Alcotest.(check (float 1e-9)) "timer seconds add" 0.75 secs;
  let n, sum, mn, mx = List.assoc "m.h" m.histograms in
  Alcotest.(check int) "hist n adds" 3 n;
  Alcotest.(check (float 1e-9)) "hist sum adds" 15.0 sum;
  Alcotest.(check (float 1e-9)) "hist min" 1.0 mn;
  Alcotest.(check (float 1e-9)) "hist max" 9.0 mx;
  Alcotest.(check (pair int int)) "cache adds" (4, 7)
    (List.assoc "m.$" m.caches);
  (* identity: merging with the empty snapshot changes nothing *)
  let empty = { M.counters = []; timers = []; histograms = []; caches = [] } in
  Alcotest.(check int) "left identity" 7
    (List.assoc "m.x" (M.merge empty m).counters);
  Alcotest.(check int) "right identity" 7
    (List.assoc "m.x" (M.merge m empty).counters)

let test_absorb () =
  let snap =
    {
      M.counters = [ ("ab.c", 11) ];
      timers = [ ("ab.t", (2, 0.125)) ];
      histograms = [];
      caches = [ ("ab.$", (2, 3)) ];
    }
  in
  M.incr (M.counter "ab.c") ~by:4;
  M.absorb snap;
  let live = M.snapshot () in
  Alcotest.(check int) "absorbed into live cell" 15
    (List.assoc "ab.c" live.counters);
  let calls, secs = List.assoc "ab.t" live.timers in
  Alcotest.(check int) "timer created" 2 calls;
  Alcotest.(check (float 1e-9)) "timer seconds" 0.125 secs;
  Alcotest.(check (pair int int)) "cache created" (2, 3)
    (List.assoc "ab.$" live.caches)

(* The pipeline's own instrumentation: after one run on a registry code
   the stage timers have fired and the kernel caches have real hits -
   the acceptance bar for the --profile surface. *)
let test_pipeline_populates_registry () =
  M.reset ();
  Core.Artifact.clear_all ();
  let e = Codes.Registry.find "tfft2" in
  let env = e.env_of_size e.default_size in
  let t = Core.Pipeline.run e.program ~env ~h:4 in
  ignore (Core.Pipeline.simulate t);
  (* a second run over the same environment exercises the warm path of
     every memo keyed on Env.id, region.addresses included *)
  ignore (Core.Pipeline.run e.program ~env ~h:4);
  let snap = M.snapshot () in
  List.iter
    (fun name ->
      let calls, _ = List.assoc name snap.timers in
      Alcotest.(check bool) (name ^ " fired") true (calls > 0))
    [
      "pipeline.run"; "pipeline.lcg"; "pipeline.model"; "pipeline.solve";
      "pipeline.plan"; "lcg.build"; "lcg.classify"; "ilp.solve";
      "dsmsim.exec"; "descriptor.coalesce"; "descriptor.unionize";
    ];
  List.iter
    (fun name ->
      let hits, _ = List.assoc name snap.caches in
      Alcotest.(check bool) (name ^ " has hits") true (hits > 0))
    (* region.addresses no longer warms on the default (symbolic) path:
       event shapes answer what enumeration used to *)
    [ "env.eval"; "probe.memo"; "phase.analyze"; "shape.sites" ];
  Alcotest.(check bool) "edges classified" true
    (List.assoc "table1.edges" snap.counters > 0);
  Alcotest.(check bool) "messages simulated" true
    (List.assoc "exec.messages" snap.counters > 0);
  Alcotest.(check bool) "json valid" true (json_valid (M.to_json snap))

(* Cache effectiveness: a warm re-analysis must actually be answered
   from the artifact stores - nonzero entries, and a strictly positive
   fleet-wide hit count once the same kernel runs twice.  This is the
   test-level mirror of the CI cache-smoke assertion on the registry
   sweep. *)
let test_warm_run_hits_artifact_stores () =
  M.reset ();
  Core.Artifact.clear_all ();
  let e = Codes.Registry.find "jacobi2d" in
  let env = e.env_of_size e.default_size in
  ignore (Core.Pipeline.run e.program ~env ~h:4);
  ignore (Core.Pipeline.run e.program ~env ~h:4);
  let stats = Core.Artifact.stats () in
  let total_hits =
    List.fold_left (fun acc s -> acc + s.Core.Artifact.hits) 0 stats
  in
  let total_entries =
    List.fold_left (fun acc s -> acc + s.Core.Artifact.entries) 0 stats
  in
  Alcotest.(check bool) "stores populated" true (total_entries > 0);
  Alcotest.(check bool) "warm run hit the stores" true (total_hits > 0);
  (* and the --cache-stats rendering covers every registered store *)
  let report = Core.Artifact.report () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Core.Artifact.s_name ^ " in report")
        true
        (contains report s.Core.Artifact.s_name))
    stats

(* The registry holds no cells of the removed analysis daemon: no
   serve.* rows and none of its pool counters show up in a --profile.
   Calling the pool links Core.Pool, whose cells register at load
   time. *)
let test_no_daemon_cells () =
  ignore (Core.Pool.map ~f:(fun ~attempt:_ x -> x) []);
  let snap = M.snapshot () in
  let names =
    List.map fst snap.counters
    @ List.map fst snap.timers
    @ List.map fst snap.histograms
    @ List.map fst snap.caches
  in
  Alcotest.(check bool) "pool cells registered" true
    (List.mem "pool.jobs" names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is not a daemon cell") false
        (String.starts_with ~prefix:"serve." n
        || List.mem n
             [ "pool.server_jobs"; "pool.deadline_kills"; "pool.recycles" ]))
    names

(* Incremental phase-key reuse: editing one phase must not invalidate
   the sibling's cached analysis in the [phase.analyze] store (counted
   by the store's hit statistics). *)

let jacobi2d_src =
  {|program jacobi2d
param N = 8..64
real U(N,N)
real V(N,N)
repeat

phase SWEEP:
  doall I = 1, N-2
    do J = 1, N-2
      V(I,J) = U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1) work 4
    end
  end

phase COPY:
  doall I = 1, N-2
    do J = 1, N-2
      U(I,J) = V(I,J) work 1
    end
  end
|}

let store_hits name =
  match List.find_opt (fun s -> s.Core.Artifact.s_name = name)
          (Core.Artifact.stats ())
  with
  | Some s -> s.Core.Artifact.hits
  | None -> 0

let test_phase_key_incremental () =
  let edited =
    (* same SWEEP phase, different COPY body (scaled copy) *)
    String.concat "\n"
      (List.map
         (fun line ->
           if line = "      U(I,J) = V(I,J) work 1" then
             "      U(I,J) = V(I,J) + V(I,J) work 2"
           else line)
         (String.split_on_char '\n' jacobi2d_src))
  in
  let p1 = Frontend.Parse.program jacobi2d_src in
  let p2 = Frontend.Parse.program edited in
  Alcotest.(check bool) "the edit changed the program" true (p1 <> p2);
  (* prime the cache from a clean slate *)
  Core.Artifact.clear_all ();
  let analyze_all (p : Ir.Types.program) =
    List.iter (fun ph -> ignore (Ir.Phase.analyze p ph)) p.phases
  in
  analyze_all p1;
  let hits0 = store_hits "phase.analyze" in
  analyze_all p2;
  let hits1 = store_hits "phase.analyze" in
  (* exactly the untouched SWEEP phase is reused; the edited COPY is
     re-analyzed *)
  Alcotest.(check int) "one sibling phase reused" (hits0 + 1) hits1;
  Alcotest.(check bool) "keys differ for the edited phase" true
    (Ir.Types.phase_context_key p1 (List.nth p1.phases 1)
    <> Ir.Types.phase_context_key p2 (List.nth p2.phases 1));
  Alcotest.(check bool) "keys agree for the untouched phase" true
    (Ir.Types.phase_context_key p1 (List.hd p1.phases)
    = Ir.Types.phase_context_key p2 (List.hd p2.phases))

let () =
  Alcotest.run "metrics"
    [
      ( "json-checker",
        [ Alcotest.test_case "accepts/rejects" `Quick test_json_checker ] );
      ( "registry",
        [
          Alcotest.test_case "interning" `Quick test_interning;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "timer basics" `Quick test_timer_basic;
          Alcotest.test_case "timer reentrancy" `Quick test_timer_reentrant;
          Alcotest.test_case "timer exception" `Quick test_timer_exception;
          Alcotest.test_case "cache stats" `Quick test_cache_stats;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "clearers" `Quick test_clearers;
          Alcotest.test_case "warm artifact hits" `Quick
            test_warm_run_hits_artifact_stores;
          Alcotest.test_case "no daemon cells" `Quick test_no_daemon_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "primitives" `Quick test_json_primitives;
          Alcotest.test_case "snapshot document" `Quick
            test_snapshot_json_valid;
          Alcotest.test_case "of_json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "of_json rejects" `Quick test_of_json_rejects;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge sums" `Quick test_merge_sums;
          Alcotest.test_case "absorb" `Quick test_absorb;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "instrumentation populates registry" `Quick
            test_pipeline_populates_registry;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "phase key narrowing" `Quick
            test_phase_key_incremental;
        ] );
    ]
