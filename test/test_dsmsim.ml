(* Tests for the DSM simulator: conservation invariants, the H=1
   degenerate case, halo semantics, redistribution accounting, and
   baseline-vs-LCG behaviour. *)

open Symbolic
open Ilp
module Validate = Exec.Validate
open Dsmsim

let pipeline entry_name size h =
  let e = Codes.Registry.find entry_name in
  let env = e.env_of_size size in
  Core.Pipeline.run e.program ~env ~h

(* Total access events in a program (oracle). *)
let total_accesses prog env =
  let n = ref 0 in
  List.iter
    (fun ph ->
      Ir.Enumerate.iter prog env ph ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work:_ ->
          incr n))
    prog.Ir.Types.phases;
  !n

(* Sequential reference time (oracle): every access at local cost plus
   each statement's work, over a full walk of every phase. *)
let seq_time (lcg : Locality.Lcg.t) (m : Cost.machine) =
  let total = ref 0.0 in
  List.iter
    (fun ph ->
      Ir.Enumerate.iter lcg.prog lcg.env ph ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work ->
          total := !total +. float_of_int (work + m.t_local)))
    lcg.prog.phases;
  !total

let test_h1_all_local () =
  Probe.with_seed 50 (fun () ->
      List.iter
        (fun name ->
          let t = pipeline name 3 1 in
          let r = Core.Pipeline.simulate t in
          Alcotest.(check int) (name ^ " no remote") 0 r.total_remote;
          (* At H=1 the parallel run with no communication equals the
             sequential run. *)
          Alcotest.(check bool)
            (name ^ " efficiency 100%")
            true
            (abs_float (r.efficiency -. 1.0) < 1e-9))
        [ "tfft2"; "jacobi2d"; "matmul" ])

let test_conservation () =
  Probe.with_seed 51 (fun () ->
      let t = pipeline "tfft2" 3 4 in
      let r = Core.Pipeline.simulate t in
      let expected = total_accesses t.prog t.env in
      Alcotest.(check int) "local + remote = all accesses" expected
        (r.total_local + r.total_remote);
      (* per-phase stats sum to the totals *)
      let sum f = List.fold_left (fun a p -> a + f p) 0 r.phases in
      Alcotest.(check int) "phase locals" r.total_local
        (sum (fun (p : Exec.phase_stats) -> p.local));
      Alcotest.(check int) "phase remotes" r.total_remote
        (sum (fun (p : Exec.phase_stats) -> p.remote)))

let test_seq_time_independent_of_plan () =
  Probe.with_seed 52 (fun () ->
      let t = pipeline "swim" 3 4 in
      let a = Core.Pipeline.simulate t in
      let b = Core.Pipeline.simulate_baseline t in
      Alcotest.(check bool) "same seq reference" true
        (abs_float (a.seq_time -. b.seq_time) < 1e-9);
      Alcotest.(check bool) "matches the walked sum" true
        (abs_float (a.seq_time -. seq_time t.lcg t.machine) < 1e-9))

let test_proc_of_iteration () =
  Alcotest.(check int) "cyclic(2) i=5 h=4" 2 (Distribution.proc_of_iteration ~chunk:2 ~h:4 5);
  Alcotest.(check int) "wraps" 0 (Distribution.proc_of_iteration ~chunk:2 ~h:4 8);
  Alcotest.(check int) "chunk 0 guarded" 3 (Distribution.proc_of_iteration ~chunk:0 ~h:4 3);
  Alcotest.(check int) "floors below 0" 3 (Distribution.proc_of_iteration ~chunk:2 ~h:4 (-1));
  Alcotest.(check int) "wraps below 0" 0 (Distribution.proc_of_iteration ~chunk:2 ~h:4 (-8))

let test_halo_reduces_remote () =
  Probe.with_seed 53 (fun () ->
      (* Jacobi with the LCG plan (halo'd) must beat the same plan with
         halos stripped. *)
      let t = pipeline "jacobi2d" 4 4 in
      let r = Core.Pipeline.simulate t in
      let stripped =
        {
          t.plan with
          Distribution.layouts =
            List.map
              (fun (l : Distribution.layout) -> { l with halo = 0 })
              t.plan.layouts;
        }
      in
      let r0 = Exec.run t.lcg stripped t.machine in
      Alcotest.(check bool) "halo reduces remote" true
        (r.total_remote < r0.total_remote);
      Alcotest.(check bool) "halo improves efficiency" true
        (r.efficiency > r0.efficiency))

let test_redistribution_charged () =
  Probe.with_seed 54 (fun () ->
      (* TFFT2 has C edges: the run must record redistribution events
         with positive word counts. *)
      let t = pipeline "tfft2" 3 4 in
      let r = Core.Pipeline.simulate t in
      let redists =
        List.filter (fun (c : Exec.comm_stats) -> c.words > 0) r.comms
      in
      Alcotest.(check bool) "some redistribution" true (List.length redists > 0);
      List.iter
        (fun (c : Exec.comm_stats) ->
          Alcotest.(check bool) "positive time" true (c.time > 0.0))
        redists)

let test_lcg_beats_block () =
  Probe.with_seed 55 (fun () ->
      (* The headline shape: at moderate H the locality-derived plan
         dominates or matches the naive BLOCK plan on every code. *)
      List.iter
        (fun name ->
          let e = Codes.Registry.find name in
          let t = pipeline name e.default_size 8 in
          let eff, base = Core.Pipeline.efficiency t in
          Alcotest.(check bool)
            (Printf.sprintf "%s: LCG (%.2f) >= 0.9 * BLOCK (%.2f)" name eff base)
            true
            (eff >= (0.9 *. base) -. 1e-9))
        (* trisolve is the designed-conservative kernel: its triangular
           regions defeat the balanced condition, and at its tiny default
           size the resulting redistribution loses to BLOCK - which is
           the honest expected outcome, asserted separately. *)
        (List.filter (fun n -> n <> "trisolve") Codes.Registry.names))

(* Sec. 4.3's 70 % at 64 processors: tfft2, communication-bound at
   P=Q=256 (67.5 %), crosses it at P=Q=512 (T_par 842,552 against
   T_seq 38,535,168: 71.5 %). *)
let test_tfft2_crosses_70 () =
  let r = Core.Pipeline.simulate (pipeline "tfft2" 9 64) in
  Alcotest.(check bool)
    (Printf.sprintf "tfft2 P=Q=512, H=64: LCG efficiency %.3f >= 0.70" r.efficiency)
    true (r.efficiency >= 0.70)

let test_privatized_always_local () =
  Probe.with_seed 56 (fun () ->
      (* F3's Y is privatizable: its accesses never count as remote.
         Strip Y's halo and verify F3 still reports no remote Y access
         by comparing against a plan without privatization. *)
      let t = pipeline "tfft2" 3 2 in
      let r = Core.Pipeline.simulate t in
      let no_priv = { t.plan with Distribution.privatized = [] } in
      let r2 = Exec.run t.lcg no_priv t.machine in
      Alcotest.(check bool) "privatization can only help" true
        (r.total_remote <= r2.total_remote))

let test_replicated_read_only_local () =
  Probe.with_seed 57 (fun () ->
      (* matmul's A is read by every iteration (replication): all A
         accesses must be local under the LCG plan. *)
      let t = pipeline "matmul" 3 4 in
      let r = Core.Pipeline.simulate t in
      Alcotest.(check int) "no remote at all" 0 r.total_remote)

let test_steady_state_rounds () =
  Probe.with_seed 61 (fun () ->
      (* Replaying R rounds of a repeating program scales the work
         linearly; per-round parallel time converges (no redistribution
         inside an all-L cycle). *)
      let t = pipeline "jacobi2d" 4 4 in
      let r1 = Exec.run ~rounds:1 t.lcg t.plan t.machine in
      let r4 = Exec.run ~rounds:4 t.lcg t.plan t.machine in
      Alcotest.(check int) "4x accesses"
        (4 * (r1.total_local + r1.total_remote))
        (r4.total_local + r4.total_remote);
      Alcotest.(check bool) "seq scales" true
        (abs_float (r4.seq_time -. (4.0 *. r1.seq_time)) < 1e-6);
      Alcotest.(check bool) "efficiency stable" true
        (abs_float (r4.efficiency -. r1.efficiency) < 0.02))

let test_cost_model_tracks_simulator () =
  Probe.with_seed 62 (fun () ->
      (* The solver's predicted load-imbalance D is an upper-ish proxy:
         with D = 0 predicted (even division), the simulator must show
         near-equal phase times at every H tested. *)
      let t = pipeline "matmul" 4 4 in
      Alcotest.(check bool) "predicted D = 0" true (t.solution.d_cost < 1e-9);
      let r = Core.Pipeline.simulate t in
      Alcotest.(check int) "no remote" 0 r.total_remote;
      Alcotest.(check bool) "perfect efficiency" true (r.efficiency > 0.999))

let test_per_proc_stats () =
  Probe.with_seed 66 (fun () ->
      let t = pipeline "matmul" 3 4 in
      let r = Core.Pipeline.simulate t in
      (* per-processor compute sums to the total abstract work *)
      let total_work = ref 0 in
      List.iter
        (fun ph ->
          Ir.Enumerate.iter t.prog t.env ph
            ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work -> total_work := !total_work + work))
        t.prog.phases;
      let sum =
        Array.fold_left
          (fun acc (s : Exec.proc_stats) -> acc +. s.compute_time)
          0.0 r.per_proc
      in
      Alcotest.(check int) "compute conserved" !total_work
        (int_of_float sum);
      Alcotest.(check int) "h entries" 4 (Array.length r.per_proc))

let test_machine_monotonicity () =
  Probe.with_seed 65 (fun () ->
      (* remote counts depend only on the plan; times grow with remote
         cost parameters *)
      let t = pipeline "adi" 4 4 in
      let base = { (Ilp.Cost.default_machine ~h:4) with t_remote = 10 } in
      let slow = { base with t_remote = 100 } in
      let r1 = Exec.run t.lcg t.plan base in
      let r2 = Exec.run t.lcg t.plan slow in
      Alcotest.(check int) "remote invariant" r1.total_remote r2.total_remote;
      Alcotest.(check bool) "slower remote, slower run" true
        (r2.par_time >= r1.par_time);
      let pricey = { base with t_startup = 10_000 } in
      let r3 = Exec.run t.lcg t.plan pricey in
      Alcotest.(check bool) "startup hits redistribution" true
        (r3.par_time > r1.par_time))

(* ------------------------------------------------------------------ *)
(* Dataflow validation: the strongest property in the suite - under
   the plan plus the generated communication schedule, every read of
   every code observes the sequentially-correct value. *)

let test_dataflow_all_codes () =
  Probe.with_seed 63 (fun () ->
      List.iter
        (fun (e : Codes.Registry.entry) ->
          List.iter
            (fun h ->
              let t = Core.Pipeline.run e.program ~env:(e.env_of_size 4) ~h in
              let rounds = if e.program.repeats then 2 else 1 in
              let r = Validate.run ~rounds t.lcg t.plan in
              Alcotest.(check int)
                (Printf.sprintf "%s H=%d: no stale reads (%d reads)" e.name h
                   r.reads)
                0 r.stale)
            (* high H exercised deliberately: tiny blocks once exposed a
               window/strip mismatch and an uninitialized-replica bug *)
            [ 2; 8; 32; 64 ])
        Codes.Registry.all)

let test_dataflow_catches_missing_comm () =
  Probe.with_seed 64 (fun () ->
      (* sanity of the validator itself: dropping the frontier messages
         from the schedule must surface as stale ghost reads, and
         dropping redistribution messages as stale remote epochs *)
      let t = pipeline "jacobi2d" 4 4 in
      let good = Validate.run ~rounds:2 t.lcg t.plan in
      Alcotest.(check int) "good schedule validates" 0 good.stale;
      let sched = Dsmsim.Comm.generate t.lcg t.plan in
      let no_frontier = Dsmsim.Comm.redistributions sched in
      let bad = Validate.run ~rounds:2 ~sched:no_frontier t.lcg t.plan in
      Alcotest.(check bool) "missing frontier updates detected" true
        (bad.stale > 0);
      let ta = pipeline "adi" 4 4 in
      let sched_a = Dsmsim.Comm.generate ta.lcg ta.plan in
      let no_redist = Dsmsim.Comm.frontiers sched_a in
      let bad_a = Validate.run ~rounds:2 ~sched:no_redist ta.lcg ta.plan in
      Alcotest.(check bool) "missing redistribution detected" true
        (bad_a.stale > 0))

(* ------------------------------------------------------------------ *)
(* Communication generation *)

(* Regression: an array size that failed to evaluate used to read 0,
   so an array whose declared size cannot be evaluated produced size-0
   strips and nonsense messages.  The LCG's size fact is now [None] and
   [generate] omits that array's events (reporting through [on_error])
   while still scheduling every healthy array. *)
let test_comm_unevaluable_size () =
  Probe.with_seed 77 (fun () ->
      let open Ir.Build in
      let n = var "N" in
      (* A is a healthy N*N array moved by a transpose (guaranteed
         redistribution); B is identical except its declared size
         references the unbound parameter M *)
      let prog =
        program ~name:"phantom"
          ~params:
            (Symbolic.Assume.of_list [ ("N", Symbolic.Assume.Int_range (8, 32)) ])
          ~arrays:[ array "A" [ n * n ]; array "B" [ var "M" ] ]
          [
            phase "W"
              (doall "c" ~lo:(int 0)
                 ~hi:(n - int 1)
                 [
                   do_ "r" ~lo:(int 0)
                     ~hi:(n - int 1)
                     [
                       assign
                         [
                           write "A" [ var "r" + (n * var "c") ];
                           write "B" [ var "r" + (n * var "c") ];
                         ];
                     ];
                 ]);
            phase "T"
              (doall "c" ~lo:(int 0)
                 ~hi:(n - int 1)
                 [
                   do_ "r" ~lo:(int 0)
                     ~hi:(n - int 1)
                     [
                       assign
                         [
                           read "A" [ var "c" + (n * var "r") ];
                           read "B" [ var "c" + (n * var "r") ];
                         ];
                     ];
                 ]);
          ]
      in
      let env = Env.of_list [ ("N", 8) ] in
      let t = Core.Pipeline.run prog ~env ~h:4 in
      Alcotest.(check (option int))
        "A size evaluates" (Some 64)
        (Locality.Lcg.size t.lcg "A");
      Alcotest.(check (option int))
        "B size unevaluable" None
        (Locality.Lcg.size t.lcg "B");
      let errors = ref [] in
      let sched =
        Comm.generate ~on_error:(fun m -> errors := m :: !errors) t.lcg t.plan
      in
      let arrays_in_sched =
        List.map
          (function
            | Comm.Redistribute { array; _ } | Comm.Frontier { array; _ } ->
                array)
          sched
      in
      Alcotest.(check bool) "A still scheduled" true
        (List.mem "A" arrays_in_sched);
      Alcotest.(check bool) "B omitted" false (List.mem "B" arrays_in_sched);
      Alcotest.(check (list string)) "omission reported"
        [ "array B: size has unbound parameter M; omitting its messages" ]
        (List.sort_uniq compare !errors);
      (* no message of any surviving event may be empty: the size-0
         strips of the old behaviour are gone *)
      List.iter
        (function
          | Comm.Redistribute { messages; _ } | Comm.Frontier { messages; _ }
            ->
              List.iter
                (fun (m : Comm.message) ->
                  Alcotest.(check bool) "positive words" true (m.words > 0))
                messages)
        sched)

let test_comm_matches_exec () =
  Probe.with_seed 58 (fun () ->
      (* the generated redistribution schedule moves exactly the words
         the simulator independently accounts for *)
      let t = pipeline "tfft2" 4 4 in
      let r = Core.Pipeline.simulate t in
      let sched = Comm.generate t.lcg t.plan in
      let exec_redist_words =
        List.fold_left
          (fun acc (c : Exec.comm_stats) ->
            (* frontier events in Exec carry after-phase semantics; the
               redistribution ones were emitted with matching word
               counts at epoch entries.  Separate by looking the event
               up in the schedule. *)
            acc + c.words)
          0
          (List.filter
             (fun (c : Exec.comm_stats) ->
               List.exists
                 (function
                   | Comm.Redistribute { array; before_phase; _ } ->
                       array = c.array && before_phase = c.before_phase
                   | Comm.Frontier _ -> false)
                 sched)
             r.comms)
      in
      let sched_redist_words = Comm.total_words (Comm.redistributions sched) in
      Alcotest.(check int) "redistribution words agree" exec_redist_words
        sched_redist_words)

(* tfft2 and adi redistribute; jacobi2d on two processors sends each
   processor's frontier strips on both sides to the same neighbour,
   so a pair's ranges arrive out of address order. *)
let test_comm_aggregation () =
  Probe.with_seed 59 (fun () ->
      List.iter
        (fun (code, size, h) ->
          let t = pipeline code size h in
          List.iter
            (fun e ->
              let msgs =
                match e with
                | Comm.Redistribute { messages; _ }
                | Comm.Frontier { messages; _ } ->
                    messages
              in
              (* aggregation: at most one message per (src,dst) pair *)
              let pairs =
                List.map (fun (m : Comm.message) -> (m.src, m.dst)) msgs
              in
              Alcotest.(check int) "one message per pair"
                (List.length (List.sort_uniq compare pairs))
                (List.length pairs);
              List.iter
                (fun (m : Comm.message) ->
                  Alcotest.(check bool) "no self-messages" true (m.src <> m.dst);
                  (* ranges are sorted, disjoint, maximal and sum to words *)
                  let sum =
                    List.fold_left (fun a (lo, hi) -> a + hi - lo + 1) 0 m.ranges
                  in
                  Alcotest.(check int) "range words" m.words sum;
                  let rec maximal = function
                    | (_, hi) :: (((lo2, _) :: _) as rest) ->
                        hi + 1 < lo2 && maximal rest
                    | _ -> true
                  in
                  Alcotest.(check bool) "sorted disjoint maximal ranges" true
                    (maximal m.ranges))
                msgs)
            (Comm.generate t.lcg t.plan))
        (* tfft2 and adi redistribute; jacobi2d on two processors sends
           a processor's frontier strips on both sides to one
           neighbour, so a pair's ranges arrive out of address order *)
        [ ("tfft2", 4, 4); ("adi", 4, 4); ("jacobi2d", 4, 2) ])

let test_comm_frontier_for_stencil () =
  Probe.with_seed 60 (fun () ->
      let t = pipeline "jacobi2d" 4 4 in
      let sched = Comm.generate t.lcg t.plan in
      (* jacobi: no redistribution (single chain per array), but
         frontier updates after the writing phases *)
      Alcotest.(check int) "no redistribution" 0
        (List.length (Comm.redistributions sched));
      Alcotest.(check bool) "has frontier events" true
        (List.length (Comm.frontiers sched) > 0))

(* The delivery protocol on a hand-built schedule: a wrap-around
   redistribution W (before phase 0), a mid-program redistribution M
   (before phase 1) and a frontier F (after phase 0), walked twice. *)
let test_comm_walk () =
  let sched =
    [
      Comm.Redistribute { array = "W"; before_phase = 0; messages = [] };
      Comm.Frontier { array = "F"; after_phase = 0; messages = [] };
      Comm.Redistribute { array = "M"; before_phase = 1; messages = [] };
    ]
  in
  let steps = ref [] in
  Comm.walk ~rounds:2 ~sched ~phases:[ "p0"; "p1" ]
    ~step:(fun ~round ~k ph ~incoming ~outgoing ->
      Alcotest.(check string) "phase passed through"
        (Printf.sprintf "p%d" k) ph;
      (* a misplaced event shows up with its kind spelled out *)
      let incoming =
        List.map
          (function
            | Comm.Redistribute { array; _ } -> array
            | Comm.Frontier { array; _ } -> "frontier " ^ array)
          incoming
      and outgoing =
        List.map
          (function
            | Comm.Frontier { array; _ } -> array
            | Comm.Redistribute { array; _ } -> "redistribute " ^ array)
          outgoing
      in
      steps := ((round, k), (incoming, outgoing)) :: !steps);
  Alcotest.(check (list (pair (pair int int) (pair (list string) (list string)))))
    "gated event sequence"
    [
      ((0, 0), ([], [ "F" ]));
      ((0, 1), ([ "M" ], []));
      ((1, 0), ([ "W" ], [ "F" ]));
      ((1, 1), ([ "M" ], []));
    ]
    (List.rev !steps)

(* The comm fallbacks [run] takes, with its result. *)
let comm_fallbacks run =
  Metrics.reset ();
  let r = run () in
  let c = (Metrics.snapshot ()).Metrics.counters in
  (r, Option.value ~default:0 (List.assoc_opt "symbolic.fallback.comm" c))

(* Checks that the schedule in closed form prints as the one the
   enumerating twins give; returns it and its comm fallbacks. *)
let check_closed_vs_enum what lcg plan =
  let print () = Format.asprintf "%a" Comm.pp (Comm.generate lcg plan) in
  let closed, fallbacks = comm_fallbacks print in
  let mode = Lattice.mode_cell () in
  let prev = !mode in
  let enum =
    Fun.protect
      ~finally:(fun () -> mode := prev)
      (fun () ->
        mode := Lattice.Enumerated_only;
        print ())
  in
  Alcotest.(check string) (what ^ ": schedule") enum closed;
  fallbacks

(* The nine kernels at their default size and adi at sizes 5-8, each
   at H 2, 4, 16 and 64.  adi's copy-in elision needs the union of the
   head phase's write boxes (its reads straddle two of them), so no
   comm fallback may answer there. *)
let test_comm_closed_form_vs_enum () =
  let points =
    List.map
      (fun (e : Codes.Registry.entry) -> (e.name, e.default_size))
      Codes.Registry.all
    @ List.map (fun size -> ("adi", size)) [ 5; 6; 7; 8 ]
  in
  List.iter
    (fun (code, size) ->
      List.iter
        (fun h ->
          Probe.with_seed 78 (fun () ->
              let t = pipeline code size h in
              let point = Printf.sprintf "%s@%d H=%d" code size h in
              let fallbacks = check_closed_vs_enum point t.lcg t.plan in
              if code = "adi" then
                Alcotest.(check int) (point ^ ": comm fallbacks") 0 fallbacks))
        [ 2; 4; 16; 64 ])
    points

(* Copy-in elision where the epoch's reads straddle the head phase's
   two write boxes, under a hand-built plan that moves A from CYCLIC(1)
   to CYCLIC(4) before the head phase.  The head writes A(i) and
   A(i + N + gap), i = 0..N-1, and the next phase reads A(0..2N-1+gap):
   with no gap the union of the writes covers every read and the
   redistribution is elided; with a gap of one, cell N is read before
   any write in the epoch and the redistribution stays.  Neither write
   box alone contains the read box, so only the union test decides. *)
let test_comm_union_cover () =
  List.iter
    (fun gap ->
      Probe.with_seed 79 (fun () ->
          let open Ir.Build in
          let n = var "N" in
          let last = (int 2 * n) - int 1 + int gap in
          let prog =
            program ~name:"straddle"
              ~params:(Assume.of_list [ ("N", Assume.Int_range (4, 16)) ])
              ~arrays:[ array "A" [ last + int 1 ] ]
              [
                phase "init"
                  (doall "i" ~lo:(int 0) ~hi:last [ assign [ write "A" [ var "i" ] ] ]);
                phase "head"
                  (doall "i" ~lo:(int 0)
                     ~hi:(n - int 1)
                     [
                       assign
                         [
                           write "A" [ var "i" ];
                           write "A" [ var "i" + n + int gap ];
                         ];
                     ]);
                phase "tail"
                  (doall "i" ~lo:(int 0) ~hi:last [ assign [ read "A" [ var "i" ] ] ]);
              ]
          in
          let lcg = Locality.Lcg.build prog ~env:(Env.of_list [ ("N", 8) ]) ~h:2 in
          let layout first_phase last_phase block =
            {
              Distribution.array = "A";
              first_phase;
              last_phase;
              base = 0;
              block;
              period = None;
              mirror = None;
              halo = 0;
            }
          in
          let plan =
            {
              Distribution.h = 2;
              chunk = [| 1; 1; 1 |];
              layouts = [ layout 0 0 1; layout 1 2 4 ];
              privatized = [];
            }
          in
          let what = Printf.sprintf "gap %d" gap in
          Alcotest.(check int) (what ^ ": comm fallbacks") 0
            (check_closed_vs_enum what lcg plan);
          Alcotest.(check bool) (what ^ ": redistributes") (gap > 0)
            (Comm.redistributions (Comm.generate lcg plan) <> [])))
    [ 0; 1 ]

(* A ratchet on every stage's fallbacks under [Pipeline.simulate],
   summed over the twelve deep programs of campaign 2026 at H=16 and
   default programs #0-199 of campaign 42 at H=4, at their midpoint
   environments: (stage, deep bound, default bound).  Lower the bounds
   when a change lowers the counts. *)
let fallback_bounds =
  [
    ("comm", 2, 3);
    ("liveness", 118, 61);
    ("footprint", 206, 97);
    ("lcg-work", 0, 0);
    ("lcg", 0, 0);
    ("distribution", 0, 0);
    ("exec", 0, 0);
    ("lint-bounds", 0, 0);
  ]

let test_fallback_ratchet () =
  let corpus profile seed n h =
    let totals = Hashtbl.create 8 in
    for index = 0 to n - 1 do
      let prog = Fuzz.Gen.program profile ~seed ~index in
      Probe.with_seed 2026 (fun () ->
          Metrics.reset ();
          let env = Fuzz.Gen.midpoint_env prog in
          ignore (Core.Pipeline.simulate (Core.Pipeline.run prog ~env ~h));
          List.iter
            (fun (k, v) -> Hashtbl.replace totals k (v + Option.value ~default:0 (Hashtbl.find_opt totals k)))
            (Metrics.snapshot ()).Metrics.counters)
    done;
    (* a stage without a bound fails here instead of passing unseen *)
    Hashtbl.iter
      (fun k _ ->
        let prefix = "symbolic.fallback." in
        if String.starts_with ~prefix k then
          let stage = String.sub k (String.length prefix) (String.length k - String.length prefix) in
          if not (List.exists (fun (s, _, _) -> s = stage) fallback_bounds) then
            Alcotest.failf "stage %s has no ratchet bound" stage)
      totals;
    fun stage -> Option.value ~default:0 (Hashtbl.find_opt totals ("symbolic.fallback." ^ stage))
  in
  let deep = corpus Fuzz.Gen.deep 2026 12 16
  and default = corpus Fuzz.Gen.default 42 200 4 in
  List.iter
    (fun (stage, deep_bound, default_bound) ->
      Alcotest.(check bool)
        (Printf.sprintf "deep-2026 #0-11: %d %s fallbacks <= %d" (deep stage) stage deep_bound)
        true
        (deep stage <= deep_bound);
      Alcotest.(check bool)
        (Printf.sprintf "default-42 #0-199: %d %s fallbacks <= %d" (default stage) stage
           default_bound)
        true
        (default stage <= default_bound))
    fallback_bounds

let () =
  Alcotest.run "dsmsim"
    [
      ( "invariants",
        [
          Alcotest.test_case "H=1 all local" `Quick test_h1_all_local;
          Alcotest.test_case "access conservation" `Quick test_conservation;
          Alcotest.test_case "seq reference stable" `Quick
            test_seq_time_independent_of_plan;
          Alcotest.test_case "iteration scheduling" `Quick test_proc_of_iteration;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "halo reduces remote" `Quick test_halo_reduces_remote;
          Alcotest.test_case "redistribution charged" `Quick
            test_redistribution_charged;
          Alcotest.test_case "privatized local" `Quick test_privatized_always_local;
          Alcotest.test_case "replicated read-only" `Quick
            test_replicated_read_only_local;
          Alcotest.test_case "steady-state rounds" `Quick
            test_steady_state_rounds;
          Alcotest.test_case "cost model tracks simulator" `Quick
            test_cost_model_tracks_simulator;
          Alcotest.test_case "machine monotonicity" `Quick
            test_machine_monotonicity;
          Alcotest.test_case "per-proc stats" `Quick test_per_proc_stats;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "LCG >= BLOCK" `Slow test_lcg_beats_block;
          Alcotest.test_case "tfft2 crosses 70 % at P=Q=512" `Slow test_tfft2_crosses_70;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "all codes, all H" `Slow test_dataflow_all_codes;
          Alcotest.test_case "validator catches gaps" `Quick
            test_dataflow_catches_missing_comm;
        ] );
      ( "comm",
        [
          Alcotest.test_case "unevaluable size omitted" `Quick
            test_comm_unevaluable_size;
          Alcotest.test_case "schedule = simulator words" `Quick
            test_comm_matches_exec;
          Alcotest.test_case "aggregation invariants" `Quick
            test_comm_aggregation;
          Alcotest.test_case "stencil frontier" `Quick
            test_comm_frontier_for_stencil;
          Alcotest.test_case "walk gating" `Quick test_comm_walk;
          Alcotest.test_case "union of write boxes" `Quick
            test_comm_union_cover;
          Alcotest.test_case "closed form = enumerated" `Slow
            test_comm_closed_form_vs_enum;
          Alcotest.test_case "fallback ratchet" `Slow
            test_fallback_ratchet;
        ] );
    ]
