(* Unit tests for the Symbolic.Metrics registry: interning, counters,
   reentrancy-safe timers, cache statistics, reset semantics, the
   hand-rolled JSON emitter (validated by a small recursive-descent
   JSON syntax checker, since the project deliberately has no JSON
   dependency), and per-phase reuse in the phase.analyze store. *)

module M = Symbolic.Metrics

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

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
  M.with_timer t ignore;
  let snap = M.snapshot () in
  let calls, _ = List.assoc "t.timer" snap.timers in
  Alcotest.(check int) "two calls" 2 calls

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
  let c = M.local_cache (M.cache "t.cache") in
  let counts () = List.assoc "t.cache" (M.snapshot ()).caches in
  Alcotest.(check (pair int int)) "empty" (0, 0) (counts ());
  M.hit_local c;
  M.hit_local c;
  M.hit_local c;
  M.miss_local c;
  Alcotest.(check (pair int int)) "hits, misses" (3, 1) (counts ());
  Alcotest.(check bool) "rate 3/4" true
    (contains (M.to_json (M.snapshot ())) "\"t.cache\":{\"hits\":3,\"misses\":1,\"hit_rate\":0.75}")

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
  let store : int Symbolic.Artifact.store = Symbolic.Artifact.store "t.artifact" in
  let k = Symbolic.Artifact.Key.int 1 in
  Alcotest.(check int) "computed" 7 (Symbolic.Artifact.find store k (fun () -> 7));
  Alcotest.(check int) "cached" 7 (Symbolic.Artifact.find store k (fun () -> 8));
  Symbolic.Artifact.clear_all ();
  Alcotest.(check int) "flushed by clear_all" 9
    (Symbolic.Artifact.find store k (fun () -> 9))

(* The one invalidation rule: [with_seed] drops every store on entry
   and exit, so a value cached under one seed is recomputed under the
   next and again once each scope exits. *)
let test_reseed_recomputes () =
  let store : int Symbolic.Artifact.store = Symbolic.Artifact.store "t.reseed" in
  let computed = ref 0 in
  let find () =
    Symbolic.Artifact.find store (Symbolic.Artifact.Key.int 1) (fun () ->
        incr computed;
        !computed)
  in
  Symbolic.Probe.with_seed 1 (fun () ->
      Alcotest.(check int) "computed inside with_seed a" 1 (find ());
      Alcotest.(check int) "cached inside with_seed a" 1 (find ());
      Symbolic.Probe.with_seed 2 (fun () ->
          Alcotest.(check int) "recomputed inside with_seed b" 2 (find ()));
      Alcotest.(check int) "recomputed after with_seed b exits" 3 (find ()));
  Alcotest.(check int) "recomputed after with_seed a exits" 4 (find ())

(* [--profile] shows this run only: a registered cell nothing touched
   is left out of the table but stays in the snapshot (and the JSON). *)
let test_table_skips_untouched () =
  let touched = M.counter "t.table-touched" in
  ignore (M.counter "t.table-idle");
  ignore (M.timer "t.table-idle-timer");
  ignore (M.cache "t.table-idle-cache");
  M.incr touched;
  let snap = M.snapshot () in
  let table = Format.asprintf "@[<v>%a@]" M.pp_table snap in
  Alcotest.(check bool) "touched counter shown" true (contains table "t.table-touched");
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not in the table") false (contains table name))
    [ "t.table-idle"; "t.table-idle-timer"; "t.table-idle-cache" ];
  Alcotest.(check bool) "idle counter in the snapshot" true
    (List.mem_assoc "t.table-idle" snap.counters);
  Alcotest.(check bool) "idle timer in the snapshot" true
    (List.mem_assoc "t.table-idle-timer" snap.timers);
  Alcotest.(check bool) "idle cache in the snapshot" true
    (List.mem_assoc "t.table-idle-cache" snap.caches)

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
  M.with_timer (M.timer "t.json-timer") ignore;
  M.hit_local (M.local_cache (M.cache "t.json-cache"));
  let doc = M.to_json (M.snapshot ()) in
  Alcotest.(check bool) "valid JSON" true (json_valid doc);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains doc needle))
    [ "t.json-counter"; "t.json-timer"; "t.json-cache"; "hit_rate" ]

(* ------------------------------------------------------------------ *)
(* Merging: the batch pool's workers send their per-job snapshots back
   with their results; the parent folds them with [merge]. *)

let test_merge_sums () =
  let a =
    {
      M.counters = [ ("m.x", 2); ("m.only-a", 1) ];
      timers = [ ("m.t", (1, 0.5)) ];
      caches = [ ("m.$", (3, 1)) ];
    }
  in
  let b =
    {
      M.counters = [ ("m.x", 5); ("m.only-b", 4) ];
      timers = [ ("m.t", (2, 0.25)) ];
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
  Alcotest.(check (pair int int)) "cache adds" (4, 7)
    (List.assoc "m.$" m.caches);
  (* identity: merging with the empty snapshot changes nothing *)
  let empty = { M.counters = []; timers = []; caches = [] } in
  Alcotest.(check int) "left identity" 7
    (List.assoc "m.x" (M.merge empty m).counters);
  Alcotest.(check int) "right identity" 7
    (List.assoc "m.x" (M.merge m empty).counters)

let test_absorb () =
  let snap =
    {
      M.counters = [ ("ab.c", 11) ];
      timers = [ ("ab.t", (2, 0.125)) ];
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
  Symbolic.Artifact.clear_all ();
  let e = Codes.Registry.find "tfft2" in
  let env = e.env_of_size e.default_size in
  let t = Core.Pipeline.run e.program ~env ~h:4 in
  ignore (Core.Pipeline.simulate t);
  (* a second run over the same environment exercises the warm path of
     every memo keyed on Env.id *)
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
    [ "env.eval"; "probe.column"; "phase.analyze"; "shape.sites" ];
  Alcotest.(check bool) "edges classified" true
    (List.assoc "table1.edges" snap.counters > 0);
  Alcotest.(check bool) "messages simulated" true
    (List.assoc "exec.messages" snap.counters > 0);
  Alcotest.(check bool) "json valid" true (json_valid (M.to_json snap))

(* Hits and misses summed over the artifact stores' cache cells, read
   off a fresh snapshot; expr.intern is the one cache cell that no
   store owns. *)
let store_totals () =
  List.fold_left
    (fun (h, m) (name, (hits, misses)) ->
      if name = "expr.intern" then (h, m) else (h + hits, m + misses))
    (0, 0) (M.snapshot ()).caches

(* Cache effectiveness on every registry kernel at size
   [min default_size 6] and H=4, seed 2026: the cold run raises
   nothing, the simulator raises only recoverable exceptions, and a
   second run in the same environment is answered from the artifact
   stores (the cold run misses and fills them, the warm run adds hits)
   and renders a byte-identical report. *)
let test_warm_run_hits_artifact_stores () =
  Symbolic.Probe.with_seed 2026 @@ fun () ->
  List.iter
    (fun (e : Codes.Registry.entry) ->
      M.reset ();
      Symbolic.Artifact.clear_all ();
      let env = e.env_of_size (min e.default_size 6) in
      let once () =
        let t = Core.Pipeline.run e.program ~env ~h:4 in
        (match Core.Pipeline.simulate t with
        | _ -> ()
        | exception ex when Core.Pipeline.recoverable ex -> ());
        Format.asprintf "%a" Core.Pipeline.report t
      in
      let cold = once () in
      let cold_hits, cold_misses = store_totals () in
      Alcotest.(check bool) (e.name ^ ": stores populated") true (cold_misses > 0);
      Alcotest.(check string) (e.name ^ ": warm report") cold (once ());
      let warm_hits, _ = store_totals () in
      Alcotest.(check bool) (e.name ^ ": warm run hit the stores") true (warm_hits > cold_hits))
    Codes.Registry.all

(* The registry holds no cells of the removed analysis daemon, of
   the forked worker pool or of the deleted memo stores: no serve.* or
   pool.* rows and no symmetry.analyze, region.addresses or
   range.bounds cache show up in a --profile, even once a batch has
   run. *)
let test_no_daemon_cells () =
  let _, merged = Core.Jobs.map ~f:(fun x -> x) [ 1; 2 ] in
  M.absorb merged;
  let snap = M.snapshot () in
  let names =
    List.map fst snap.counters
    @ List.map fst snap.timers
    @ List.map fst snap.caches
  in
  Alcotest.(check bool) "cells registered" true (names <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is not a daemon, pool or deleted store cell") false
        (String.starts_with ~prefix:"serve." n
        || String.starts_with ~prefix:"pool." n
        || List.mem n [ "symmetry.analyze"; "region.addresses"; "range.bounds" ]))
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

let store_hits name = fst (List.assoc name (M.snapshot ()).caches)

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
  Symbolic.Artifact.clear_all ();
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
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "clearers" `Quick test_clearers;
          Alcotest.test_case "re-seed recomputes" `Quick test_reseed_recomputes;
          Alcotest.test_case "table skips untouched cells" `Quick
            test_table_skips_untouched;
          Alcotest.test_case "warm artifact hits" `Quick
            test_warm_run_hits_artifact_stores;
          Alcotest.test_case "no daemon cells" `Quick test_no_daemon_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "primitives" `Quick test_json_primitives;
          Alcotest.test_case "snapshot document" `Quick
            test_snapshot_json_valid;
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
