(* Unit tests for the Symbolic.Metrics registry: interning, counters,
   reentrancy-safe timers, cache statistics, reset semantics, the
   hand-rolled JSON emitter (validated by a small recursive-descent
   JSON syntax checker, since the project deliberately has no JSON
   dependency), and the cells a pipeline run fills. *)

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

(* Probe bank lookups: one miss per bank built, one hit per bank
   found. *)
module Assume = Symbolic.Assume

let bank_cell () = List.assoc "probe.bank" (M.snapshot ()).caches
let bank_misses () = snd (bank_cell ())
let use_bank asm = ignore (Symbolic.Probe.sample asm 0)
let one_set () = Assume.of_list [ ("n", Assume.Int_range (1, 100)) ]

(* A set's bank is built once and then found, until a clear drops it:
   [Probe.clear], or [Artifact.clear_all], its alias. *)
let test_clearers () =
  let asm = one_set () in
  Symbolic.Probe.clear ();
  let before = bank_misses () in
  let built () = bank_misses () - before in
  use_bank asm;
  use_bank asm;
  Alcotest.(check int) "built once" 1 (built ());
  Symbolic.Artifact.clear_all ();
  use_bank asm;
  use_bank asm;
  Alcotest.(check int) "rebuilt after Artifact.clear_all" 2 (built ());
  Symbolic.Probe.clear ();
  use_bank asm;
  Alcotest.(check int) "rebuilt after Probe.clear" 3 (built ())

(* The one invalidation rule: [with_seed] drops every bank on entry
   and exit, so a bank built under one seed is rebuilt under the next
   and again once each scope exits. *)
let test_reseed_recomputes () =
  let asm = one_set () in
  let before = bank_misses () in
  let built () = bank_misses () - before in
  Symbolic.Probe.with_seed 1 (fun () ->
      use_bank asm;
      Alcotest.(check int) "built inside with_seed a" 1 (built ());
      use_bank asm;
      Alcotest.(check int) "found inside with_seed a" 1 (built ());
      Symbolic.Probe.with_seed 2 (fun () ->
          use_bank asm;
          Alcotest.(check int) "rebuilt inside with_seed b" 2 (built ()));
      use_bank asm;
      Alcotest.(check int) "rebuilt after with_seed b exits" 3 (built ()));
  use_bank asm;
  Alcotest.(check int) "rebuilt after with_seed a exits" 4 (built ())

(* Banks are keyed by the declarations, not by the set's record: two
   sets built apart with equal declarations share one bank, and a set
   that differs in one [Expr_range] bound has a bank and a hash of its
   own. *)
let test_equal_sets_share () =
  let open Symbolic in
  let set hi =
    Assume.of_list
      [
        ("p", Assume.Int_range (1, 6));
        ("P", Assume.Pow2_of "p");
        ("j", Assume.Expr_range (Expr.zero, Expr.sub (Expr.var "P") (Expr.int hi)));
      ]
  in
  let a = set 1 and b = set 1 and c = set 2 in
  Alcotest.(check bool) "physically distinct" false (a == b);
  Alcotest.(check int) "equal hashes" (Assume.hash a) (Assume.hash b);
  Alcotest.(check bool) "a bound moves the hash" true (Assume.hash a <> Assume.hash c);
  Probe.clear ();
  let hits0, misses0 = bank_cell () in
  let count () =
    let hits, misses = bank_cell () in
    (hits - hits0, misses - misses0)
  in
  use_bank a;
  use_bank b;
  use_bank b;
  Alcotest.(check (pair int int)) "one bank, then hits" (2, 1) (count ());
  Alcotest.(check bool) "same rows" true
    (Env.bindings (Probe.sample a 5) = Env.bindings (Probe.sample b 5));
  use_bank c;
  Alcotest.(check int) "bound differs: own bank" 2 (snd (count ()))

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
   the stage timers have fired and the probe bank's cache cells have
   real hits - the acceptance bar for the --profile surface. *)
let test_pipeline_populates_registry () =
  M.reset ();
  Symbolic.Probe.clear ();
  let e = Codes.Registry.find "tfft2" in
  let env = e.env_of_size e.default_size in
  let t = Core.Pipeline.run e.program ~env ~h:4 in
  ignore (Core.Pipeline.simulate t);
  (* a second run over the same assumption sets exercises the probe
     bank's warm path *)
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
    [ "probe.bank"; "probe.column" ];
  Alcotest.(check bool) "edges classified" true
    (List.assoc "table1.edges" snap.counters > 0);
  Alcotest.(check bool) "messages simulated" true
    (List.assoc "exec.messages" snap.counters > 0);
  Alcotest.(check bool) "json valid" true (json_valid (M.to_json snap))

(* Hits and misses summed over the probe bank's cache cells (the banks
   and their columns), read off a fresh snapshot. *)
let bank_totals () =
  List.fold_left
    (fun (h, m) (name, (hits, misses)) ->
      if List.mem name [ "probe.bank"; "probe.column" ] then (h + hits, m + misses)
      else (h, m))
    (0, 0) (M.snapshot ()).caches

(* Cache effectiveness on every registry kernel at size
   [min default_size 6] and H=4, seed 2026: the cold run raises
   nothing, the simulator raises only recoverable exceptions, and a
   second run in the same environment is answered from the probe bank
   (the cold run misses and fills it, the warm run adds hits) and
   renders a byte-identical report. *)
let test_warm_run_hits_banks () =
  Symbolic.Probe.with_seed 2026 @@ fun () ->
  List.iter
    (fun (e : Codes.Registry.entry) ->
      M.reset ();
      Symbolic.Probe.clear ();
      let env = e.env_of_size (min e.default_size 6) in
      let once () =
        let t = Core.Pipeline.run e.program ~env ~h:4 in
        (match Core.Pipeline.simulate t with
        | _ -> ()
        | exception ex when Core.Pipeline.recoverable ex -> ());
        Format.asprintf "%a" Core.Pipeline.report t
      in
      let cold = once () in
      let cold_hits, cold_misses = bank_totals () in
      Alcotest.(check bool) (e.name ^ ": banks populated") true (cold_misses > 0);
      Alcotest.(check string) (e.name ^ ": warm report") cold (once ());
      let warm_hits, _ = bank_totals () in
      Alcotest.(check bool) (e.name ^ ": warm run hit the banks") true (warm_hits > cold_hits))
    Codes.Registry.all

(* The registry holds no cells of the removed analysis daemon, of
   the forked worker pool or of the deleted memo stores: no serve.* or
   pool.* rows and no symmetry.analyze, region.addresses, range.bounds,
   env.eval, phase.analyze or shape.sites cache show up in a
   --profile, even once a batch has run. *)
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
        || List.mem n
             [
               "symmetry.analyze"; "region.addresses"; "range.bounds"; "env.eval";
               "phase.analyze"; "shape.sites";
             ]))
    names

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
          Alcotest.test_case "equal sets share a bank" `Quick test_equal_sets_share;
          Alcotest.test_case "table skips untouched cells" `Quick
            test_table_skips_untouched;
          Alcotest.test_case "warm artifact hits" `Quick
            test_warm_run_hits_banks;
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
    ]
