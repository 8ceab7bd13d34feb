open Symbolic

type verdict = Pass | Skip of string | Fail of string

type check = {
  name : string;
  doc : string;
  run : Ir.Types.program -> verdict;
}

let h = 4

let with_mode m f =
  let cell = Lattice.mode_cell () in
  let saved = !cell in
  Fun.protect
    ~finally:(fun () -> cell := saved)
    (fun () ->
      cell := m;
      f ())

let run_pipeline prog =
  Core.Pipeline.run prog ~env:(Gen.midpoint_env prog) ~h

let render prog =
  let t = run_pipeline prog in
  (Format.asprintf "%a@." Core.Pipeline.report_core t, t)

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<missing>")
    | [], y :: _ -> Some (i, "<missing>", y)
  in
  go 1 (la, lb)

(* ------------------------------------------------------------------ *)

let roundtrip prog =
  let src = Frontend.Unparse.to_string prog in
  match Core.Pipeline.parse_program ~where:"<fuzz>" src with
  | None -> Fail "generated source does not parse back"
  | Some p2 ->
      let src2 = Frontend.Unparse.to_string p2 in
      if String.equal src src2 then Pass
      else
        Fail
          (match first_diff src src2 with
          | Some (l, a, b) ->
              Printf.sprintf "unparse not a fixed point at line %d: %S vs %S" l a b
          | None -> "unparse not a fixed point")

(* Diagnostics compared structurally, modulo the fallback-visibility
   note only the symbolic side can emit (mode-dependent by design). *)
let diag_sig t =
  List.filter_map
    (fun (d : Core.Diag.t) ->
      if String.equal d.Core.Diag.code "LINT-SYMBOLIC-FALLBACK" then None
      else Some (Printf.sprintf "%s|%s" d.Core.Diag.code d.Core.Diag.message))
    (Core.Pipeline.diagnostics t)

let enum_parity prog =
  let sym, t = with_mode Lattice.Auto (fun () -> render prog) in
  let enu, te = with_mode Lattice.Enumerated_only (fun () -> render prog) in
  match first_diff sym enu with
  | Some (l, a, b) ->
      Fail
        (Printf.sprintf
           "symbolic and enumerated reports diverge at line %d: %S vs %S" l a b)
  | None ->
      if diag_sig t <> diag_sig te then
        Fail "symbolic and enumerated diagnostics diverge"
      else Pass

let race_oracle prog =
  let diags = Core.Diag.collector () in
  let (_ : Ir.Types.program) =
    Core.Lint.autopar ~envs:[ Gen.midpoint_env prog ] ~diags prog
  in
  match
    List.find_opt
      (fun (d : Core.Diag.t) -> String.equal d.code "RACE-ORACLE-MISMATCH")
      (Core.Diag.to_list diags)
  with
  | Some d -> Fail ("certifier vs dynamic oracle: " ^ d.message)
  | None -> Pass

(* The chain point checked in exact integers against every row it must
   satisfy: the unbroken locality equalities, the load-balance bounds,
   and the unbroken storage caps [coeff p <= limit]. *)
let ilp_chain prog =
  let t = with_mode Lattice.Auto (fun () -> run_pipeline prog) in
  if Core.Pipeline.degraded t then Skip "pipeline degraded"
  else begin
    let model = t.model in
    let p = t.solution.p in
    let broken b = List.mem b t.solution.broken in
    let bad_loc =
      List.find_opt
        (fun (l : Ilp.Model.locality) ->
          (not (broken (Ilp.Solve.Locality (l.array, l.k, l.g))))
          && l.ai * p.(l.k) <> (l.bi * p.(l.g)) + l.ci)
        model.locality
    in
    let bad_bound =
      List.find_opt
        (fun (b : Ilp.Model.bound) -> p.(b.k) < 1 || p.(b.k) > b.hi)
        model.bounds
    in
    let bad_storage =
      List.find_opt
        (fun (s : Ilp.Model.storage) ->
          (not (broken (Ilp.Solve.Storage s))) && s.coeff * p.(s.k) > s.limit)
        model.storage
    in
    match (bad_loc, bad_bound, bad_storage) with
    | Some l, _, _ ->
        Fail
          (Printf.sprintf
             "chain point violates unbroken locality row %s: %d p%d = %d p%d + %d"
             l.array l.ai l.k l.bi l.g l.ci)
    | _, Some b, _ ->
        Fail
          (Printf.sprintf "chain point violates bound row: p%d = %d not in 1..%d"
             b.k p.(b.k) b.hi)
    | _, _, Some s ->
        Fail
          (Printf.sprintf
             "chain point violates storage row %s: %d p%d <= %d at p%d = %d"
             s.array s.coeff s.k s.limit s.k p.(s.k))
    | None, None, None -> Pass
  end

let comm_parity prog =
  let t = with_mode Lattice.Auto (fun () -> run_pipeline prog) in
  let schedule mode =
    with_mode mode (fun () ->
        let errs = ref [] in
        let sched =
          Dsmsim.Comm.generate ~on_error:(fun m -> errs := m :: !errs) t.lcg t.plan
        in
        ( Format.asprintf "%a@." Dsmsim.Comm.pp sched,
          Dsmsim.Comm.total_words sched,
          Dsmsim.Comm.message_count sched,
          List.rev !errs ))
  in
  let ps, ws, ms, es = schedule Lattice.Auto in
  let pe, we, me, ee = schedule Lattice.Enumerated_only in
  if ws <> we then
    Fail (Printf.sprintf "total_words %d (symbolic) vs %d (enumerated)" ws we)
  else if ms <> me then
    Fail (Printf.sprintf "message_count %d (symbolic) vs %d (enumerated)" ms me)
  else if es <> ee then Fail "schedule generation errors diverge between modes"
  else
    match first_diff ps pe with
    | Some (l, a, b) ->
        Fail (Printf.sprintf "schedules diverge at line %d: %S vs %S" l a b)
    | None -> Pass

let cold_warm prog =
  (* Both runs re-parse the same source so every expression is rebuilt
     against the current intern table; only the artifact store's
     temperature differs. *)
  let src = Frontend.Unparse.to_string prog in
  let parse () =
    match Core.Pipeline.parse_program ~where:"<fuzz>" src with
    | Some p -> p
    | None -> failwith "cold-warm: source does not parse"
  in
  Artifact.clear_all ();
  let cold, _ = with_mode Lattice.Auto (fun () -> render (parse ())) in
  let warm, _ = with_mode Lattice.Auto (fun () -> render (parse ())) in
  match first_diff cold warm with
  | Some (l, a, b) ->
      Fail
        (Printf.sprintf "cold and warm reports diverge at line %d: %S vs %S" l a b)
  | None -> Pass

(* Simulated-vs-executed parity: actually run the generated program on
   OCaml domains and hold it to the model - delivered messages must
   equal the Comm schedule under the same gating, every executed read
   must equal its sequential-replay value, and final-epoch contents
   must land in the owners' replicas.  A plan whose simulated replay
   already reads stale ({!Exec.Validate}) is skipped and counted in
   [fuzz.stale_plans]: the executor cannot agree with a replay that is
   itself wrong. *)
let exec_budget_words = 1 lsl 16

let stale_plans = Metrics.counter "fuzz.stale_plans"

let exec_parity prog =
  let t = with_mode Lattice.Auto (fun () -> run_pipeline prog) in
  if Core.Pipeline.degraded t then Skip "pipeline degraded"
  else begin
    (* an array whose size does not evaluate counts 0 here; the
       replica machine refuses it as unsupported *)
    let total =
      List.fold_left
        (fun acc (d : Ir.Types.array_decl) ->
          acc + Option.value ~default:0 (Locality.Lcg.size t.lcg d.name))
        0 t.lcg.prog.arrays
    in
    if total > exec_budget_words then
      Skip (Printf.sprintf "arrays total %d words, over budget" total)
    else begin
      let rounds = if prog.Ir.Types.repeats then 2 else 1 in
      match
        let v = Exec.Validate.run ~rounds t.lcg t.plan in
        match Exec.Validate.verdict v with
        | Stale -> Error v
        | Pass | Checked_nothing -> Ok (Exec.Runner.execute ~rounds t.lcg t.plan)
      with
      | exception Exec.Runner.Unsupported m -> Skip ("unsupported: " ^ m)
      | Error v ->
          Metrics.incr stale_plans;
          Skip
            (Printf.sprintf "stale plan: the simulated replay reads %d of %d stale"
               v.stale v.reads)
      | Ok r ->
          if r.errors <> [] then
            Fail ("executor error: " ^ String.concat "; " r.errors)
          else if not (Exec.Runner.schedule_parity r) then
            Fail
              (Printf.sprintf
                 "delivered %d msgs / %d words, schedule has %d / %d"
                 r.sched_messages r.sched_words r.expected_messages
                 r.expected_words)
          else if r.stale > 0 then
            Fail
              (Printf.sprintf "%d stale reads (of %d checked)" r.stale
                 r.reads_checked)
          else if r.content_mismatches > 0 then
            Fail
              (Printf.sprintf "%d final cells differ from replay (of %d)"
                 r.content_mismatches r.content_cells)
          else Pass
    end
  end

(* ------------------------------------------------------------------ *)

let guarded f prog = try f prog with e -> Fail ("exception: " ^ Printexc.to_string e)

let checks =
  [
    { name = "roundtrip";
      doc = "unparse -> parse -> unparse is a fixed point";
      run = guarded roundtrip;
    };
    { name = "enum-parity";
      doc = "report_core identical under symbolic and enumerated accounting";
      run = guarded enum_parity;
    };
    { name = "race-oracle";
      doc = "static race certifier agrees with the dynamic sampling oracle";
      run = guarded race_oracle;
    };
    { name = "ilp-chain";
      doc = "the solve's chain point satisfies every Table-2 row it must";
      run = guarded ilp_chain;
    };
    { name = "comm-parity";
      doc = "communication schedule identical under both accounting modes";
      run = guarded comm_parity;
    };
    { name = "cold-warm";
      doc = "warm artifact store reproduces the cold report";
      run = guarded cold_warm;
    };
    { name = "exec-parity";
      doc = "domain execution matches the schedule and the sequential replay";
      run = guarded exec_parity;
    };
  ]

let find name = List.find (fun c -> String.equal c.name name) checks

let battery prog = List.map (fun c -> (c.name, c.run prog)) checks
