(* dsmbench: the repository's benchmark.

   Two kinds of users wait on this code.  Compiler users wait for the
   analysis (parse -> lint -> LCG -> Table-2 model -> Eq. 7 solve ->
   plan -> report); users of the generated code wait for the SPMD
   program to run on the domains executor.  Each workload measures one
   of those waits on a fixed mix of inputs, in an order made from
   --seed, checks every output against a reference, and (with
   --trace 1) splits the operation into per-layer spans timed from
   outside the library.
   README.md next to this file lists the workloads, the metrics with
   their units and bounds, and the comparison protocol.

     dsmbench [--seed N] [--seconds S | --passes N] [--points N]
         every workload, each in its own child process; prints
         "workload metric value unit" lines, writes
         dsmbench/out/results.json and one trace file per workload,
         and exits 1 unless every check holds
     dsmbench --workload W [--seed N] [--seconds S | --passes N]
              [--points N] [--trace 0|1]
         one workload in this process; the last stdout line is a JSON
         object {correct, attempted, failed, metrics}
     dsmbench agree A.json B.json
         exit 0 iff two results files agree within the bounds in
         BENCHMARK.json and their exact counts are identical

   Paths are relative to the repository root, which is where the
   command runs. *)

open Symbolic

let now = Unix.gettimeofday
let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("dsmbench: " ^ m); exit 2) fmt
let out_dir = Filename.concat "dsmbench" "out"
let benchmark_file = "BENCHMARK.json"

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

(* Summed in sorted order, so that the same values in another order give
   the same result to the last bit. *)
let geomean = function
  | [] -> 0.0
  | xs -> exp (mean (List.map log (List.sort compare xs)))

(* ------------------------------------------------------------------ *)
(* JSON: enough to read BENCHMARK.json, a workload's result line and a
   results file. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s and i = ref 0 in
  let bad what = raise (Bad_json (Printf.sprintf "%s at byte %d" what !i)) in
  let peek () = if !i < n then s.[!i] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr i;
        ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then bad (Printf.sprintf "expected '%c'" c);
    incr i
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then bad "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr i;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              i := !i + 4;
              Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let word w v =
    let l = String.length w in
    if !i + l <= n && String.sub s !i l = w then begin
      i := !i + l;
      v
    end
    else bad "unexpected literal"
  in
  let seq close item =
    incr i;
    ws ();
    if peek () = close then begin
      incr i;
      []
    end
    else
      let rec go acc =
        let x = item () in
        ws ();
        match peek () with
        | ',' ->
            incr i;
            go (x :: acc)
        | c when c = close ->
            incr i;
            List.rev (x :: acc)
        | _ -> bad "expected ',' or a closing bracket"
      in
      go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        Obj
          (seq '}' (fun () ->
               let k = str () in
               expect ':';
               (k, value ())))
    | '[' -> Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> (
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do
          incr i
        done;
        match float_of_string_opt (String.sub s j (!i - j)) with
        | Some f -> Num f
        | None -> bad "bad number")
  in
  let v = value () in
  ws ();
  if !i <> n then bad "trailing bytes";
  v

let field k = function Obj l -> List.assoc_opt k l | _ -> None

let get_str k j =
  match field k j with Some (Str s) -> s | _ -> raise (Bad_json ("no string " ^ k))

let get_num k j =
  match field k j with Some (Num f) -> f | _ -> raise (Bad_json ("no number " ^ k))

let get_list k j = match field k j with Some (Arr l) -> l | _ -> []
let get_obj k j = match field k j with Some (Obj l) -> l | _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_json path =
  match parse_json (read_file path) with
  | j -> j
  | exception (Sys_error m | Bad_json m) -> fail "%s: %s" path m

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_str s = "\"" ^ Metrics.json_escape s ^ "\""

(* One workload's result object; [metrics] are (name, value, unit). *)
let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str n) (json_num v) (json_str u))
          metrics))

(* ------------------------------------------------------------------ *)
(* Metrics: names and units.  BENCHMARK.json lists the same names; the
   all-workloads run checks that every one of them is printed. *)

let end_to_end =
  [
    ("latency_ms", "ms");
    ("tail_ms", "ms");
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_efficiency", "ratio");
  ]

(* How a per-layer value combines over a workload's traced ops: [Mean]
   per op, [Sum] per pass, [Geo] geometric mean of per-point ratios;
   [Run] values describe the whole run instead. *)
type agg = Mean | Sum | Geo | Run

let per_layer =
  [
    ("frontend.ms", "ms", Mean);
    ("lint.ms", "ms", Mean);
    ("lcg.ms", "ms", Mean);
    ("lcg.classify.ms", "ms", Mean);
    ("descriptor.coalesce.ms", "ms", Mean);
    ("descriptor.unionize.ms", "ms", Mean);
    ("model.ms", "ms", Mean);
    ("solve.ms", "ms", Mean);
    ("plan.ms", "ms", Mean);
    ("report.ms", "ms", Mean);
    ("symbolic.fallback", "count", Sum);
    ("env.eval_uncached", "count", Sum);
    ("enum.iter", "count", Sum);
    ("enum.addresses", "count", Sum);
    ("table1.edges", "count", Sum);
    ("solve.budget_exhausted", "count", Sum);
    ("comm.ms", "ms", Mean);
    ("codegen.ms", "ms", Mean);
    ("exec.seq_ms", "ms", Mean);
    ("exec.par_ms", "ms", Mean);
    ("exec.check_ms", "ms", Mean);
    ("exec.messages", "count", Sum);
    ("exec.words", "count", Sum);
    ("exec.remote_gets", "count", Sum);
    ("exec.remote_puts", "count", Sum);
    ("exec.local_accesses", "count", Sum);
    ("exec.busy_imbalance", "ratio", Geo);
    ("exec.speedup", "ratio", Geo);
    ("exec.predicted_speedup", "ratio", Geo);
    ("exec.predict_log_error", "ratio", Mean);
    ("trace.additivity", "ratio", Run);
    ("trace.overhead", "ratio", Run);
    ("host.slowdown", "ratio", Run);
  ]

(* Counts that repeat exactly for the same code and seed; [agree]
   demands equality on them. *)
let exact_counts =
  [ "symbolic.fallback"; "env.eval_uncached"; "table1.edges"; "exec.messages"; "exec.words" ]

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* Every analysis, the reference included, starts from source text, as
   it does for users. *)
type source = { label : string; text : string; env : Env.t; h : int }

let source ~label prog ~env ~h = { label; text = Frontend.Unparse.to_string prog; env; h }

let registry h (name, size) =
  let e = Codes.Registry.find name in
  source
    ~label:(Printf.sprintf "%s@%d/H=%d" name size h)
    e.program ~env:(e.env_of_size size) ~h

(* The first twelve programs of the deep fuzz campaign 2026.  The draw
   does not follow --seed: one deep program's analysis time varies by
   36 % (coefficient of variation) from program to program, so twelve
   programs drawn from other seeds move the workload's geometric mean
   by 11 % (interquartile range over ten seeds), wider than any bound a
   regression check could use. *)
let deep_pipelines () =
  List.init 12 (fun index ->
      let prog = Fuzz.Gen.program Fuzz.Gen.deep ~seed:2026 ~index in
      source
        ~label:(Printf.sprintf "deep#%d/%dph/H=16" index (List.length prog.Ir.Types.phases))
        prog ~env:(Fuzz.Gen.midpoint_env prog) ~h:16)

type kind = Analysis | Exec

type workload = {
  name : string;
  kind : kind;
  pinned : bool;
      (* references are digests pinned in dsmbench/expected/, and the
         run must stay inside the closed-form fragment: no fallback, no
         SOLVE-BUDGET *)
  sources : unit -> source list;  (* cheapest first *)
}

let workloads =
  let grid names sizes hs =
    List.concat_map
      (fun h -> List.concat_map (fun s -> List.map (fun n -> (h, (n, s))) names) sizes)
      hs
    |> List.map (fun (h, p) -> registry h p)
  in
  [
    {
      name = "paper-kernels";
      kind = Analysis;
      pinned = false;
      sources =
        (fun () ->
          List.concat_map
            (fun h ->
              List.map
                (fun (e : Codes.Registry.entry) -> registry h (e.name, e.default_size))
                Codes.Registry.all)
            [ 4; 16; 64 ]);
    };
    {
      name = "large-extents";
      kind = Analysis;
      pinned = true;
      sources =
        (fun () -> grid [ "jacobi2d"; "swim"; "redblack"; "mgrid" ] [ 16; 20 ] [ 64; 1024 ]);
    };
    {
      name = "enum-fallback";
      kind = Analysis;
      pinned = false;
      sources =
        (fun () ->
          List.map (registry 64) [ ("matmul", 5); ("tfft2", 5); ("adi", 8); ("tfft2", 6) ]);
    };
    {
      name = "deep-pipelines";
      kind = Analysis;
      pinned = false;
      sources = deep_pipelines;
    };
    {
      (* four stencils whose accesses are nearly all local plus frontier
         puts, then tfft2's remote gets and puts and adi's global
         redistribution *)
      name = "exec";
      kind = Exec;
      pinned = false;
      sources =
        (fun () ->
          List.map (registry 2)
            [
              ("jacobi2d", 8); ("swim", 7); ("tomcatv", 7); ("redblack", 16); ("tfft2", 5); ("adi", 8);
            ]);
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      fail "unknown workload %s (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.name) workloads))

(* ------------------------------------------------------------------ *)
(* Operations *)

(* Every op starts as cold as a fresh dsmloc process: the reset a
   Core.Pool worker makes between jobs, and a heap with no garbage left
   by the previous op, whose collection would otherwise be billed to
   this one and raise its peak memory.  The probe stream stays the
   default one that dsmloc uses: under Probe.with_seed the work itself
   changes with the seed (env.eval_uncached on swim@5/H=4 doubles
   between seeds 1 and 3), so the seed rather than the code would set
   the cost. *)
let cold () =
  Metrics.reset ();
  Artifact.clear_all ();
  Expr.intern_reset ();
  Gc.full_major ()

let digest_of t =
  Digest.to_hex (Digest.string (Format.asprintf "%a@." Core.Pipeline.report_core t))

(* What an analysis produced, as one string compared against the
   point's reference digest: any flag appended here fails the op. *)
let verdict ~pinned (t : Core.Pipeline.t) digest ~fallbacks =
  List.fold_left
    (fun acc (bad, flag) -> if bad then acc ^ flag else acc)
    digest
    [
      (Core.Pipeline.degraded t, "+degraded");
      (pinned && t.solution.budget_exhausted, "+solve-budget");
      (pinned && fallbacks > 0, "+fallback");
    ]

(* One analysis, as a user runs it: parse the text, Core.Pipeline.run,
   digest the report.  The three calls are timed here; the pipeline's
   own stage timers (pipeline.lint, ...) split the middle one. *)
type analysis = {
  check : string;  (* the verdict *)
  times : float * float * float * float;
      (* the starts of the parse, the pipeline and the report, and the end *)
  budget_exhausted : bool;
}

let analyze ~pinned s =
  let f0 = Lattice.fallback_count () in
  let t0 = now () in
  let prog = Frontend.Parse.program s.text in
  let t1 = now () in
  let t = Core.Pipeline.run prog ~env:s.env ~h:s.h in
  let t2 = now () in
  let d = digest_of t in
  let t3 = now () in
  {
    check = verdict ~pinned t d ~fallbacks:(Lattice.fallback_count () - f0);
    times = (t0, t1, t2, t3);
    budget_exhausted = t.solution.budget_exhausted;
  }

type exec_point = { src : source; plan : Core.Pipeline.t; rounds : int }

let execute ?(check_reads = false) ?(spin = 20) p =
  Exec.Runner.execute ~rounds:p.rounds ~spin ~check_reads p.plan.lcg p.plan.plan

type inputs = Analyses of source array | Execs of exec_point array

let label_of inputs i =
  match inputs with Analyses a -> a.(i).label | Execs a -> a.(i).src.label

let size_of = function Analyses a -> Array.length a | Execs a -> Array.length a

(* The seed sets the order of the round-robin pass. *)
let shuffle ~seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let setup w ~seed ~points =
  let srcs = shuffle ~seed (List.filteri (fun i _ -> i < points) (w.sources ())) in
  match w.kind with
  | Analysis -> Analyses (Array.of_list srcs)
  | Exec ->
      Execs
        (Array.of_list
           (List.map
              (fun s ->
                let prog = Frontend.Parse.program s.text in
                cold ();
                let plan = Core.Pipeline.run prog ~env:s.env ~h:s.h in
                { src = s; plan; rounds = (if prog.repeats then 2 else 1) })
              srcs))

let exec_check r = if Exec.Runner.ok r then "ok" else "executor checks failed"

(* One timed op on point [i]: (seconds of the whole call, seconds of the
   user's wait, verdict).  Analysis: the cold parse -> pipeline ->
   report digest, all of which the user waits for.  Exec: the whole
   Runner.execute call (schedule, closures, sequential replay, parallel
   run, checks), and within it the parallel run of the generated code on
   two domains (wall_par), which is what a user of that code waits
   for. *)
let op w inputs i =
  cold ();
  let t0 = now () in
  match inputs with
  | Analyses a ->
      let r = analyze ~pinned:w.pinned a.(i) in
      let t = now () -. t0 in
      (t, t, r.check)
  | Execs a ->
      let r = execute a.(i) in
      (now () -. t0, r.wall_par, exec_check r)

(* Host speed.  On a VM that shares cores with other tenants the same
   op drifts by up to 1.8x over minutes, in CPU time as much as in wall
   time.  Fixed kernels, which call nothing in the repository, are
   timed right before every op.  Each op's time is scaled by the
   kernel's reference time over its median of the nine ops around it:
   near enough in time to follow the host's phases, and enough samples
   to smooth the kernel's own jitter.  The result reads as a time at
   the reference speed.  Set-up times and per-layer times are scaled by
   the median calibration of their phase of the run, the latter
   reported as host.slowdown.

   [calibrate] hashes, builds short lists and sorts, as the analysis
   does.  Over 40 passes of paper-kernels, the raw geometric mean moved
   between 27 and 48 ms while its ratio to this kernel stayed within
   +-10 %.  Adding a chain of integer adds and sweeps over a 4 MB array
   to it, to mimic the executor, tracked exec ops no better and did not
   steady the analysis. *)
let calibrate () =
  let h = Hashtbl.create 256 in
  let acc = ref 0 in
  for i = 0 to 15_000 do
    let k = i * 7919 land 255 in
    (match Hashtbl.find_opt h k with Some l -> acc := !acc + List.length l | None -> ());
    Hashtbl.replace h k [ k; i; k + i ]
  done;
  let a = Array.init 2_500 (fun i -> i * 104_729 mod 2_503) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc + a.(0)))

(* The parallel run of an exec op also waits on both vCPUs at once and
   on the wake-ups at every barrier, which a one-thread kernel does not
   feel.  [calibrate_par] is built like that run: it spawns a domain, as
   Runner.execute does, and each of the two sweeps its own 256 x 256
   grid with a five-point stencil, spins, and meets the other at a
   mutex-and-condition barrier, six times; it allocates nothing, so no
   minor collection stops both.  [wall_par] is scaled by it and the rest
   of an exec op by [calibrate].  Over twelve 45 s processes of ops on
   the four stencil exec points, the geometric mean of per-point medians
   of the parallel run spread by 5.7 % between processes unscaled, by
   1.2 % scaled by [calibrate] and by 0.9 % scaled by [calibrate_par]
   (interquartile range over median); cut into 15 s stretches, by up to
   24 % and 18 % (range over median). *)
let stencil_grids =
  lazy
    (Array.init 4 (fun _ ->
         let g = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (256 * 256) in
         Bigarray.Array1.fill g 1.0;
         g))

type barrier = { m : Mutex.t; c : Condition.t; mutable arrived : int; mutable epoch : int }

let await b =
  Mutex.lock b.m;
  let e = b.epoch in
  b.arrived <- b.arrived + 1;
  if b.arrived = 2 then begin
    b.arrived <- 0;
    b.epoch <- e + 1;
    Condition.broadcast b.c
  end
  else
    while b.epoch = e do
      Condition.wait b.c b.m
    done;
  Mutex.unlock b.m

let calibrate_par () =
  let grids = Lazy.force stencil_grids in
  let b = { m = Mutex.create (); c = Condition.create (); arrived = 0; epoch = 0 } in
  let half p =
    let src = grids.(2 * p) and dst = grids.((2 * p) + 1) in
    for _ = 1 to 6 do
      for i = 1 to 254 do
        for j = 1 to 254 do
          let k = (i * 256) + j in
          let get d = Bigarray.Array1.unsafe_get src (k + d) in
          Bigarray.Array1.unsafe_set dst k (0.25 *. (get (-1) +. get 1 +. get (-256) +. get 256))
        done
      done;
      let x = ref 0 in
      for i = 1 to 100_000 do
        x := !x + i
      done;
      ignore (Sys.opaque_identity !x);
      await b
    done
  in
  let d = Domain.spawn (fun () -> half 1) in
  half 0;
  Domain.join d

(* Typical times of [calibrate] and [calibrate_par] on a 2-vCPU Intel
   Xeon VM at 2.0 GHz while its host was quiet.  They only set the
   unit: times scaled by them read as times on that VM. *)
let reference_calibration = 0.0014
let reference_calibration_par = 0.0036

let seconds f =
  let t0 = now () in
  f ();
  now () -. t0

type samples = {
  whole : float list array;  (* per point: whole op, at the reference speed *)
  wait : float list array;  (* per point: the user's wait within it, likewise *)
  raw : float list array;  (* per point: whole op, as measured *)
  verdicts : string list array;
  calibration : float list;
  passes : int;
  raised : int;
  attempted : int;
}

(* One timed op: the point, its whole and wait times, and the
   calibrations taken right before it. *)
type sample = { point : int; t_whole : float; t_wait : float; c : float; c_par : float }

(* [ops] latest first.  The wait is scaled by the calibration of its own
   kind; in an exec op the rest of the call is single-threaded. *)
let scaled n ~parallel ops =
  let a = Array.of_list (List.rev ops) in
  let near f j =
    let lo = max 0 (j - 4) and hi = min (Array.length a) (j + 5) in
    median (List.init (hi - lo) (fun k -> f a.(lo + k)))
  in
  let whole = Array.make n [] and wait = Array.make n [] in
  Array.iteri
    (fun j o ->
      let single = reference_calibration /. near (fun o -> o.c) j in
      let w =
        if parallel then o.t_wait *. reference_calibration_par /. near (fun o -> o.c_par) j
        else o.t_wait *. single
      in
      wait.(o.point) <- w :: wait.(o.point);
      whole.(o.point) <- (((o.t_whole -. o.t_wait) *. single) +. w) :: whole.(o.point))
    a;
  (whole, wait)

(* How long the timed run goes on: whole passes until the time is up,
   or a fixed number of them. *)
type length = Seconds of float | Passes of int

(* Closed loop, one client: round-robin passes over the points. *)
let timed_run ~parallel ~length n opf =
  let ops = ref [] and verdicts = Array.make n [] in
  let raised = ref 0 and attempted = ref 0 and passes = ref 0 in
  let started = now () in
  let more () =
    match length with
    | Passes p -> !passes < p
    | Seconds s -> !passes = 0 || now () -. started < s
  in
  while more () do
    incr passes;
    for i = 0 to n - 1 do
      Gc.full_major ();
      let c = seconds calibrate in
      let c_par = if parallel then seconds calibrate_par else c in
      incr attempted;
      match opf i with
      | t_whole, t_wait, v ->
          ops := { point = i; t_whole; t_wait; c; c_par } :: !ops;
          verdicts.(i) <- v :: verdicts.(i)
      | exception e ->
          incr raised;
          Printf.eprintf "dsmbench: op raised: %s\n%!" (Printexc.to_string e)
    done
  done;
  let passes = !passes in
  let whole, wait = scaled n ~parallel !ops in
  let raw = Array.make n [] in
  List.iter (fun o -> raw.(o.point) <- o.t_whole :: raw.(o.point)) !ops;
  {
    whole;
    wait;
    raw;
    verdicts;
    calibration = List.map (fun o -> o.c) !ops;
    passes;
    raised = !raised;
    attempted = !attempted;
  }

(* Peak RSS is read for the timed run alone: VmHWM restarts from the
   current RSS here, so the set-up's analyses on the exec workload do
   not set it. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> fail "no VmHWM in /proc/self/status"
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Verification: a reference per point, computed independently of the
   timed path. *)

type reference = { expect : string; sim_efficiency : float }

let pinned_digests w =
  let path = Filename.concat "dsmbench" (Filename.concat "expected" (w.name ^ ".txt")) in
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ label; digest ] -> Some (label, digest)
         | _ -> None)

(* Analysis reference: the enumerating accounting (no closed form), or
   the pinned digest where enumeration cannot run.  The simulator prices
   the plan either analysis made. *)
let reference w inputs =
  match inputs with
  | Analyses a ->
      let pins = if w.pinned then pinned_digests w else [] in
      Array.map
        (fun s ->
          let saved = !Lattice.mode in
          if not w.pinned then Lattice.mode := Lattice.Enumerated_only;
          let t =
            Fun.protect
              ~finally:(fun () -> Lattice.mode := saved)
              (fun () ->
                let prog = Frontend.Parse.program s.text in
                cold ();
                Core.Pipeline.run prog ~env:s.env ~h:s.h)
          in
          {
            expect =
              (if not w.pinned then digest_of t
               else
                 match List.assoc_opt s.label pins with
                 | Some d -> d
                 | None -> "unpinned " ^ s.label);
            sim_efficiency = (Core.Pipeline.simulate t).efficiency;
          })
        a
  | Execs a ->
      Array.map
        (fun p ->
          let r = execute ~check_reads:true ~spin:0 p in
          let expect =
            if not (Exec.Runner.ok r) then "verify: executor checks failed"
            else if r.reads_checked = 0 then "verify: no read checked"
            else if r.content_cells = 0 then "verify: no cell compared"
            else "ok"
          in
          {
            expect;
            sim_efficiency = (Core.Pipeline.simulate ~rounds:p.rounds p.plan).efficiency;
          })
        a

(* ------------------------------------------------------------------ *)
(* Traced operations: the same work split into layer calls made from
   here, around public functions of each layer. *)

type traced = {
  total : float;  (* the op's wall time, seconds *)
  covered : float;  (* the part of [total] the layer times account for *)
  spans : (string * string * float * float) list;
      (* name, parent ("" at the top), start, end *)
  values : (string * float) list;  (* per-layer values of this op *)
  check : string;  (* the op's verdict, compared with the untraced one *)
}

let counter snap name =
  match List.assoc_opt name snap.Metrics.counters with Some v -> float_of_int v | None -> 0.0

let timer_ms snap name =
  match List.assoc_opt name snap.Metrics.timers with Some (_, s) -> 1000.0 *. s | None -> 0.0

(* The stages Core.Pipeline.run times itself, in the order it runs
   them. *)
let stages = [ "lint"; "lcg"; "model"; "solve"; "plan" ]

(* The untraced op plus the library's counters and timers, read after
   it.  The stage spans come from the pipeline's own timers; only their
   durations are known, so they are laid end to end from the start of
   the pipeline call. *)
let traced_analysis ~pinned s =
  cold ();
  let r = analyze ~pinned s in
  let snap = Metrics.snapshot () in
  let t0, t1, t2, t3 = r.times in
  let stage_s = List.map (fun n -> (n, timer_ms snap ("pipeline." ^ n) /. 1000.0)) stages in
  let _, stage_spans =
    List.fold_left_map (fun at (n, d) -> (at +. d, (n, "pipeline", at, at +. d))) t1 stage_s
  in
  {
    total = t3 -. t0;
    covered = t1 -. t0 +. sum (List.map snd stage_s) +. (t3 -. t2);
    spans =
      [ ("frontend", "", t0, t1); ("pipeline", "", t1, t2); ("report", "", t2, t3) ]
      @ stage_spans;
    values =
      [ ("frontend.ms", 1000.0 *. (t1 -. t0)); ("report.ms", 1000.0 *. (t3 -. t2)) ]
      @ List.map (fun (n, d) -> (n ^ ".ms", 1000.0 *. d)) stage_s
      @ List.map (fun n -> (n ^ ".ms", timer_ms snap n))
          [ "lcg.classify"; "descriptor.coalesce"; "descriptor.unionize" ]
      @ List.map (fun n -> (n, counter snap n))
          [ "symbolic.fallback"; "env.eval_uncached"; "enum.iter"; "enum.addresses"; "table1.edges" ]
      @ [ ("solve.budget_exhausted", if r.budget_exhausted then 1.0 else 0.0) ];
    check = r.check;
  }

(* The executor reports how long its sequential replay and parallel run
   took.  The schedule and the closures it builds first are timed by
   calling the same functions from here, each cold as inside the op.
   The rest of the call (allocation, domain start-up, the content
   check) is exec.check_ms, and is what [covered] leaves out. *)
let traced_exec ~sim_efficiency p =
  let lcg = p.plan.lcg and plan = p.plan.plan in
  let span f =
    cold ();
    let a = now () in
    let r = f () in
    (r, a, now ())
  in
  let _, c0, c1 = span (fun () -> Dsmsim.Comm.generate lcg plan) in
  let _, g0, g1 = span (fun () -> Codegen.Compile.program lcg.prog lcg.env plan) in
  let r, e0, e1 = span (fun () -> execute p) in
  let total = e1 -. e0 in
  let comm = c1 -. c0 and codegen = g1 -. g0 in
  let covered = comm +. codegen +. r.wall_seq +. r.wall_par in
  let busy = Array.to_list r.busy in
  let predicted = float_of_int r.h *. sim_efficiency in
  {
    total;
    covered;
    spans = [ ("comm", "", c0, c1); ("codegen", "", g0, g1); ("execute", "", e0, e1) ];
    values =
      [
        ("comm.ms", 1000.0 *. comm);
        ("codegen.ms", 1000.0 *. codegen);
        ("exec.seq_ms", 1000.0 *. r.wall_seq);
        ("exec.par_ms", 1000.0 *. r.wall_par);
        ("exec.check_ms", 1000.0 *. (total -. covered));
        ("exec.messages", float_of_int r.sched_messages);
        ("exec.words", float_of_int r.sched_words);
        ("exec.remote_gets", float_of_int r.remote_gets);
        ("exec.remote_puts", float_of_int r.remote_puts);
        ("exec.local_accesses", float_of_int r.local_accesses);
        ("exec.busy_imbalance", List.fold_left max 0.0 busy /. mean busy);
        ("exec.speedup", r.speedup);
        ("exec.predicted_speedup", predicted);
        ("exec.predict_log_error", log (r.speedup /. predicted));
      ];
    check = exec_check r;
  }

let by_total l =
  let sorted = List.sort (fun a b -> compare a.total b.total) l in
  List.nth sorted (List.length sorted / 2)

(* The traced passes.  Per point and kind of op, the pass whose traced
   op took the median time is kept; its per-layer values are combined
   over the points, times scaled to the reference speed by the run's
   [slowdown].  Every traced span goes to the workload's trace file. *)
let traced_passes w inputs refs run ~slowdown ~passes ~problem =
  let buf = Buffer.create 4096 in
  let ops i =
    match inputs with
    | Analyses a -> [ ("analysis", fun () -> traced_analysis ~pinned:w.pinned a.(i)) ]
    | Execs a ->
        let sim_efficiency = refs.(i).sim_efficiency in
        [
          ("analysis", fun () -> traced_analysis ~pinned:false a.(i).src);
          ("exec", fun () -> traced_exec ~sim_efficiency a.(i));
        ]
  in
  let untraced i kind =
    match (inputs, kind) with
    | Analyses _, _ -> (
        match run.verdicts.(i) with v :: _ -> v | [] -> "every untraced op raised")
    | Execs a, "analysis" -> (analyze ~pinned:false a.(i).src).check
    | Execs _, _ -> "ok"
  in
  let chosen =
    List.concat_map
      (fun i ->
        List.map
          (fun (kind, f) ->
            let runs =
              List.init passes (fun pass ->
                  let tr = f () in
                  let base = match tr.spans with (_, _, a, _) :: _ -> a | [] -> 0.0 in
                  List.iter
                    (fun (name, parent, a, b) ->
                      Printf.bprintf buf
                        "{\"workload\":%s,\"point\":%s,\"pass\":%d,\"op\":%s,\"span\":%s,\"parent\":%s,\"start_ms\":%s,\"dur_ms\":%s}\n"
                        (json_str w.name) (json_str (label_of inputs i)) pass (json_str kind)
                        (json_str name) (json_str parent)
                        (json_num (1000.0 *. (a -. base)))
                        (json_num (1000.0 *. (b -. a))))
                    tr.spans;
                  tr)
            in
            let tr = by_total runs in
            if tr.check <> untraced i kind then
              problem
                (Printf.sprintf "%s: traced %s gave %s, untraced %s" (label_of inputs i) kind
                   tr.check (untraced i kind));
            (i, kind, tr))
          (ops i))
      (List.init (size_of inputs) Fun.id)
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc = open_out (Filename.concat out_dir (w.name ^ ".trace.jsonl")) in
  Buffer.output_buffer oc buf;
  close_out oc;
  let combined =
    List.filter_map
      (fun (name, unit, agg) ->
        let vs = List.filter_map (fun (_, _, tr) -> List.assoc_opt name tr.values) chosen in
        let scale = if unit = "ms" then 1.0 /. slowdown else 1.0 in
        match (vs, agg) with
        | _, Run -> None
        | [], _ -> Some (name, 0.0)
        | _, Mean -> Some (name, scale *. mean vs)
        | _, Sum -> Some (name, sum vs)
        | _, Geo -> Some (name, geomean vs))
      per_layer
  in
  let main = match inputs with Analyses _ -> "analysis" | Execs _ -> "exec" in
  let totals kinds =
    sum (List.filter_map (fun (_, k, tr) -> if List.mem k kinds then Some tr.total else None) chosen)
  in
  combined
  @ [
      ( "trace.additivity",
        sum (List.map (fun (_, _, tr) -> tr.covered) chosen) /. totals [ "analysis"; "exec" ] );
      ( "trace.overhead",
        totals [ main ] /. sum (Array.to_list (Array.map median run.raw)) );
    ]

(* ------------------------------------------------------------------ *)
(* One workload, in this process *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let run_workload w ~seed ~length ~points ~trace =
  (* setup: inputs and exec plans, cold, each after a calibration; at
     least five times and for at least a second, as the analysis
     workloads' set-up takes about a millisecond.  The median set-up is
     scaled by the median calibration: one calibration is too short to
     scale the exec workload's second-long set-up alone.  Only the last
     inputs are kept, so the repetitions do not grow the heap. *)
  let started = now () in
  let timed_setup () =
    cold ();
    let c = seconds calibrate in
    let t0 = now () in
    let inputs = setup w ~seed ~points in
    ((now () -. t0, c), inputs)
  in
  let rec repeat k acc =
    let enough =
      match length with
      | Passes _ -> true
      | Seconds _ -> k >= 4 && (now () -. started >= 1.0 || k >= 50)
    in
    if enough then acc else repeat (k + 1) (fst (timed_setup ()) :: acc)
  in
  let times = repeat 0 [] in
  let last, inputs = timed_setup () in
  let setups = last :: times in
  let setup_s =
    median (List.map fst setups) *. reference_calibration /. median (List.map snd setups)
  in
  let n = size_of inputs in
  if n = 0 then fail "%s: no points" w.name;
  let opf = op w inputs in
  (* untimed warm-up pass *)
  let parallel = w.kind = Exec in
  ignore (timed_run ~parallel ~length:(Passes 1) n opf);
  reset_peak_rss ();
  let run = timed_run ~parallel ~length n opf in
  let rss = peak_rss_mb () in
  let refs = reference w inputs in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let failed = ref run.raised in
  Array.iteri
    (fun i vs ->
      let wrong = List.filter (fun v -> v <> refs.(i).expect) vs in
      failed := !failed + List.length wrong;
      List.iter
        (fun v -> problem "%s: got %s, expected %s" (label_of inputs i) v refs.(i).expect)
        (List.sort_uniq compare wrong))
    run.verdicts;
  let failed = !failed in
  let slowdown = median run.calibration /. reference_calibration in
  (* Per point, the median wait.  The tail is taken over the mix of
     points, so it does not move with the number of passes a run
     makes. *)
  let waits = Array.to_list (Array.map median run.wait) in
  let e2e =
    [
      ("latency_ms", 1000.0 *. geomean waits);
      ("tail_ms", 1000.0 *. quantile 0.9 waits);
      ("ops_per_s", float_of_int n /. sum (Array.to_list (Array.map median run.whole)));
      ("setup_s", setup_s);
      ("peak_rss_mb", rss);
      ("sim_efficiency", geomean (Array.to_list (Array.map (fun r -> r.sim_efficiency) refs)));
      ("host.slowdown", slowdown);
    ]
  in
  let layers =
    if not trace then []
    else
      traced_passes w inputs refs run ~slowdown
        ~passes:(min run.passes 3)
        ~problem:(fun m -> problems := m :: !problems)
  in
  List.iter prerr_endline (List.rev !problems);
  let unit_of name =
    match List.assoc_opt name end_to_end with
    | Some u -> u
    | None ->
        let _, u, _ = List.find (fun (n, _, _) -> n = name) per_layer in
        u
  in
  {
    correct = !problems = [] && failed = 0 && run.attempted > 0;
    attempted = run.attempted;
    failed;
    metrics = List.map (fun (n, v) -> (n, v, unit_of n)) (e2e @ layers);
  }

let print_workload w r ~trace =
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %.10g %s\n" w.name n v u)
    r.metrics;
  Printf.printf "%s error_rate %.10g ratio\n" w.name
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  let shown =
    List.filter
      (fun (n, _, _) ->
        if trace then List.exists (fun (m, _, _) -> m = n) per_layer
        else List.mem_assoc n end_to_end)
      r.metrics
  in
  print_endline
    (result_json ~correct:r.correct ~attempted:r.attempted ~failed:r.failed shown)

(* ------------------------------------------------------------------ *)
(* Every workload, one child process each *)

let declared bench =
  let names key =
    List.map (fun m -> (get_str "name" m, get_str "unit" m)) (get_list key bench)
  in
  names "end_to_end" @ names "per_layer"

let run_all ~seed ~length ~points =
  let bench = read_json benchmark_file in
  let exe = Sys.executable_name in
  let length_args =
    match length with
    | Seconds s -> [ "--seconds"; Printf.sprintf "%g" s ]
    | Passes p -> [ "--passes"; string_of_int p ]
  in
  let ok = ref true in
  let complain fmt = Printf.ksprintf (fun m -> ok := false; prerr_endline ("dsmbench: " ^ m)) fmt in
  let results =
    List.map
      (fun w ->
        let args =
          [ exe; "--workload"; w.name; "--seed"; string_of_int seed; "--points";
            string_of_int points; "--trace"; "1" ]
          @ length_args
        in
        let ic = Unix.open_process_args_in exe (Array.of_list args) in
        let metrics = ref [] and last = ref "" in
        (* the child prints "workload metric value unit" lines, then its
           result object *)
        (try
           while true do
             let line = input_line ic in
             if String.length line > 0 && line.[0] = '{' then last := line
             else begin
               print_endline line;
               match String.split_on_char ' ' line with
               | [ _; n; v; u ] -> metrics := (n, float_of_string v, u) :: !metrics
               | _ -> ()
             end
           done
         with End_of_file -> ());
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> complain "%s: workload process failed" w.name);
        let metrics = List.rev !metrics in
        let correct, attempted, failed =
          match parse_json !last with
          | j ->
              ( field "correct" j = Some (Bool true),
                int_of_float (get_num "attempted" j),
                int_of_float (get_num "failed" j) )
          | exception Bad_json _ -> (false, 0, 0)
        in
        if not correct then complain "%s: outputs not correct" w.name;
        if failed > 0 then complain "%s: %d of %d ops failed" w.name failed attempted;
        List.iter
          (fun (n, u) ->
            match List.find_opt (fun (m, _, _) -> m = n) metrics with
            | Some (_, _, u') when u' = u -> ()
            | Some (_, _, u') -> complain "%s: %s printed in %s, declared %s" w.name n u' u
            | None -> complain "%s: %s not printed" w.name n)
          (declared bench);
        List.iter
          (fun (n, a, _) ->
            if n = "trace.additivity" && w.kind = Analysis && a < 0.95 then
              complain "%s: layer spans cover %.3f of the traced op" w.name a)
          metrics;
        json_str w.name ^ ":" ^ result_json ~correct ~attempted ~failed metrics)
      workloads
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir "results.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\"seed\":%d,\"workloads\":{%s}}\n" seed (String.concat "," results);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* agree: two results files within the benchmark's own bounds *)

let agree a b =
  let bench = read_json benchmark_file in
  let ra = read_json a and rb = read_json b in
  if get_num "seed" ra <> get_num "seed" rb then fail "%s and %s used different seeds" a b;
  let ok = ref true in
  let differ fmt = Printf.ksprintf (fun m -> ok := false; print_endline m) fmt in
  let value r w n =
    match field n (Obj (get_obj "metrics" (List.assoc w (get_obj "workloads" r)))) with
    | Some m -> Some (get_num "value" m)
    | None -> None
  in
  List.iter
    (fun (w, _) ->
      if not (List.mem_assoc w (get_obj "workloads" rb)) then differ "%s: missing from %s" w b
      else begin
        List.iter
          (fun r ->
            match field "failed" (List.assoc w (get_obj "workloads" r)) with
            | Some (Num f) when f > 0.0 -> differ "%s: %g failed ops" w f
            | _ -> ())
          [ ra; rb ];
        List.iter
          (fun m ->
            let n = get_str "name" m and bound = get_num "bound" m in
            match (value ra w n, value rb w n) with
            | Some x, Some y ->
                let rel = Float.abs (y -. x) /. x in
                Printf.printf "%-18s %-12s %12.6g %12.6g %+7.2f%% (bound %.0f%%)\n" w n x y
                  (100.0 *. (y -. x) /. x) (100.0 *. bound);
                if not (rel <= bound) then differ "%s %s: differs by %.1f%%" w n (100.0 *. rel)
            | _ -> differ "%s %s: missing" w n)
          (get_list "end_to_end" bench);
        List.iter
          (fun n ->
            if value ra w n <> value rb w n then differ "%s %s: counts differ" w n)
          exact_counts
      end)
    (get_obj "workloads" ra);
  if !ok then print_endline "agree" else print_endline "disagree";
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "agree"; a; b ] -> agree a b
  | _ ->
      let rec opts acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            opts ((k, v) :: acc) rest
        | [] -> acc
        | a :: _ -> fail "unexpected argument %s" a
      in
      let o = opts [] args in
      let int k d =
        match List.assoc_opt k o with
        | None -> d
        | Some v -> (
            match int_of_string_opt v with Some i -> i | None -> fail "%s wants an integer" k)
      in
      List.iter
        (fun (k, _) ->
          if
            not
              (List.mem k
                 [ "--workload"; "--seed"; "--seconds"; "--passes"; "--points"; "--trace" ])
          then fail "unknown option %s" k)
        o;
      let seed = int "--seed" 2026 in
      let points = int "--points" max_int in
      let length =
        match (List.assoc_opt "--passes" o, List.assoc_opt "--seconds" o) with
        | Some _, Some _ -> fail "--passes and --seconds exclude each other"
        | Some _, None -> Passes (int "--passes" 1)
        | None, Some s -> (
            match float_of_string_opt s with
            | Some f when f > 0.0 -> Seconds f
            | _ -> fail "--seconds wants a positive number")
        | None, None -> Seconds 15.0
      in
      match List.assoc_opt "--workload" o with
      | None -> run_all ~seed ~length ~points
      | Some name ->
          let w = find_workload name in
          let trace =
            match List.assoc_opt "--trace" o with
            | None | Some "0" -> false
            | Some "1" -> true
            | Some v -> fail "--trace wants 0 or 1, not %s" v
          in
          let r = run_workload w ~seed ~length ~points ~trace in
          print_workload w r ~trace
