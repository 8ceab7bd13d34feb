open Symbolic
open Ir
module Racecheck = Descriptor.Racecheck

exception Failed of Diag.t list

let catalog =
  [
    ( "LINT-MULTI-PARALLEL",
      Diag.Error,
      "more than one loop of a phase is marked parallel" );
    ("LINT-UNDECLARED-ARRAY", Diag.Error, "reference to an undeclared array");
    ( "LINT-SUBSCRIPT",
      Diag.Warning,
      "subscript outside the affine class (or rank mismatch: error)" );
    ( "LINT-UNBOUND-PARAM",
      Diag.Error,
      "bound, subscript or extent mentions an undeclared variable" );
    ("LINT-NONNORMAL", Diag.Info, "loop does not run from 0 with step 1");
    ( "LINT-BOUNDS",
      Diag.Error,
      "access outside the array's declared extent (sampled or analyzed \
       parameters)" );
    ("LINT-DEAD-WRITE", Diag.Warning, "array written but never read");
    ( "LINT-RACE",
      Diag.Error,
      "declared parallel loop carries a cross-iteration dependence" );
    ( "LINT-UNCERTIFIED",
      Diag.Info,
      "declared parallel loop neither certified nor refuted" );
    ( "LINT-SYMBOLIC-FALLBACK",
      Diag.Info,
      "analysis left the closed-form symbolic fragment and fell back to \
       address enumeration (emitted by the pipeline, not a lint rule)" );
  ]

let where_loop (ph : Types.phase) v = ph.Types.phase_name ^ "/" ^ v

let default_envs (prog : Types.program) =
  let st = Random.State.make [| 5; 13; 1999 |] in
  List.init 3 (fun _ -> Assume.sample ~state:st prog.Types.params)

(* ------------------------------------------------------------------ *)
(* Structural walks *)

let rec fold_loops f acc (l : Types.loop) =
  let acc = f acc l in
  List.fold_left
    (fun acc -> function Types.Loop i -> fold_loops f acc i | Types.Assign _ -> acc)
    acc l.Types.body

let loop_vars (ph : Types.phase) =
  List.rev (fold_loops (fun acc l -> l.Types.var :: acc) [] ph.Types.nest)

(* ------------------------------------------------------------------ *)
(* Per-phase structural rules *)

let rule_multi_parallel c (ph : Types.phase) =
  match Autopar.marked_paths ph.Types.nest with
  | [] | [ _ ] -> ()
  | paths ->
      Diag.addf c ~severity:Error ~stage:Lint ~where:ph.Types.phase_name
        ~code:"LINT-MULTI-PARALLEL"
        "%d loops marked parallel; a phase admits at most one"
        (List.length paths)

let rule_refs c (prog : Types.program) (ph : Types.phase) =
  let seen = Hashtbl.create 8 in
  let once key f = if not (Hashtbl.mem seen key) then (Hashtbl.add seen key (); f ()) in
  List.iter
    (fun (r : Types.array_ref) ->
      match
        List.find_opt
          (fun (d : Types.array_decl) -> String.equal d.Types.name r.Types.array)
          prog.Types.arrays
      with
      | None ->
          once ("undecl", r.Types.array) (fun () ->
              Diag.addf c ~severity:Error ~stage:Lint ~where:ph.Types.phase_name
                ~code:"LINT-UNDECLARED-ARRAY" "array %s is not declared"
                r.Types.array)
      | Some d ->
          let rank = List.length d.Types.dims in
          let used = List.length r.Types.index in
          if rank <> used then
            once ("rank", r.Types.array) (fun () ->
                Diag.addf c ~severity:Error ~stage:Lint
                  ~where:ph.Types.phase_name ~code:"LINT-SUBSCRIPT"
                  "%s referenced with %d subscripts but declared with rank %d"
                  r.Types.array used rank))
    (Types.stmt_refs (Types.Loop ph.Types.nest))

let rule_unbound c (prog : Types.program) (ph : Types.phase) =
  let known = loop_vars ph @ Assume.vars prog.Types.params in
  let seen = Hashtbl.create 8 in
  let report what e =
    List.iter
      (fun v ->
        if (not (List.mem v known)) && not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          Diag.addf c ~severity:Error ~stage:Lint ~where:(where_loop ph what)
            ~code:"LINT-UNBOUND-PARAM"
            "%s mentions %s, which is neither a loop index nor a declared \
             parameter"
            (Expr.to_string e) v
        end)
      (Expr.vars e)
  in
  ignore
    (fold_loops
       (fun () (l : Types.loop) ->
         report l.Types.var l.Types.lo;
         report l.Types.var l.Types.hi;
         report l.Types.var l.Types.step;
         List.iter
           (function
             | Types.Assign a ->
                 List.iter
                   (fun (r : Types.array_ref) ->
                     List.iter (report l.Types.var) r.Types.index)
                   a.Types.refs
             | Types.Loop _ -> ())
           l.Types.body)
       () ph.Types.nest)

let rule_nonnormal c (ph : Types.phase) =
  ignore
    (fold_loops
       (fun () (l : Types.loop) ->
         if not (Expr.is_zero l.Types.lo && Expr.equal l.Types.step Expr.one)
         then
           Diag.addf c ~severity:Info ~stage:Lint
             ~where:(where_loop ph l.Types.var) ~code:"LINT-NONNORMAL"
             "loop %s runs %s..%s step %s (normalized before analysis)"
             l.Types.var
             (Expr.to_string l.Types.lo)
             (Expr.to_string l.Types.hi)
             (Expr.to_string l.Types.step))
       () ph.Types.nest)

let rule_subscript c (ph : Types.phase) =
  let lvars = loop_vars ph in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : Types.array_ref) ->
      List.iter
        (fun e ->
          List.iter
            (fun v ->
              if
                List.mem v lvars
                && Expr.linear_in v e = None
                && not (Hashtbl.mem seen (r.Types.array, v))
              then begin
                Hashtbl.add seen (r.Types.array, v) ();
                Diag.addf c ~severity:Warning ~stage:Lint
                  ~where:(where_loop ph v) ~code:"LINT-SUBSCRIPT"
                  "%s(%s) is non-linear in %s; its descriptor degrades to the \
                   whole array"
                  r.Types.array (Expr.to_string e) v
              end)
            (Expr.vars e))
        r.Types.index)
    (Types.stmt_refs (Types.Loop ph.Types.nest))

(* ------------------------------------------------------------------ *)
(* Sampled rules *)

(* A size that does not evaluate raises [Exit], which the callers
   below treat as one more recoverable failure. *)
let size_of (prog : Types.program) env array =
  match Linearize.array_size env prog array with Ok n -> n | Error _ -> raise Exit

(* Every environment takes one path: each array's address range from
   the phase's closed form ([Shape.ranges]), reporting the extreme
   address that leaves the declared extent.  Where the closed form has
   no answer, the walk that finds the first bad address instead is a
   counted fallback; under [--symbolic-only] it is reported, not
   taken.  A sampled environment that does not evaluate ends the
   samples; the analyzed one [at] is judged on its own. *)
let rule_bounds c (prog : Types.program) envs ?at (ph : Types.phase) =
  let bad = Hashtbl.create 4 in
  let record array addr = if not (Hashtbl.mem bad array) then Hashtbl.add bad array addr in
  let check env =
    let sizes = Hashtbl.create 8 in
    let size array =
      match Hashtbl.find_opt sizes array with
      | Some s -> s
      | None ->
          let s = size_of prog env array in
          Hashtbl.add sizes array s;
          s
    in
    match Option.bind (Shape.of_phase prog env ph) Shape.ranges with
    | Some ranges ->
        List.iter
          (fun (array, lo, hi) ->
            let size = size array in
            if hi >= size then record array hi else if lo < 0 then record array lo)
          ranges
    | None -> (
        match Lattice.note_fallback ~stage:"lint-bounds" (ph.Types.phase_name ^ " address ranges") with
        | () ->
            Enumerate.iter prog env ph ~f:(fun ~par:_ ~array ~addr _ ~work:_ ->
                if addr < 0 || addr >= size array then record array addr)
        | exception Lattice.Outside_fragment reason ->
            Diag.addf c ~severity:Error ~stage:Lint ~where:ph.Types.phase_name
              ~code:"LINT-SYMBOLIC-FALLBACK"
              "bounds not checked: outside the closed-form fragment under \
               --symbolic-only: %s"
              reason)
  in
  let guarded f = try f () with Exit -> () | e when Autopar.unevaluable e -> () in
  guarded (fun () -> List.iter check envs);
  Option.iter (fun env -> guarded (fun () -> check env)) at;
  Hashtbl.iter
    (fun array addr ->
      Diag.addf c ~severity:Error ~stage:Lint ~where:ph.Types.phase_name
        ~code:"LINT-BOUNDS"
        "access to %s at flat address %d, outside its declared extent" array
        addr)
    bad

let rule_dead_write c (prog : Types.program) =
  List.iter
    (fun (d : Types.array_decl) ->
      let name = d.Types.name in
      let attrs =
        List.filter_map
          (fun ph ->
            if List.mem name (Types.phase_arrays ph) then
              try Some (Liveness.static_attr prog ph ~array:name)
              with e when Autopar.unevaluable e -> None
            else None)
          prog.Types.phases
      in
      let writes =
        List.exists (fun a -> a = Liveness.W || a = Liveness.RW) attrs
      in
      let reads =
        List.exists (fun a -> a = Liveness.R || a = Liveness.RW) attrs
      in
      if writes && not reads then
        Diag.addf c ~severity:Warning ~stage:Lint ~where:name
          ~code:"LINT-DEAD-WRITE"
          "%s is written but never read; dead computation or un-consumed \
           output"
          name)
    prog.Types.arrays

(* ------------------------------------------------------------------ *)
(* Certifier-backed rules *)

let rule_race c (prog : Types.program) envs ards (ph : Types.phase) =
  List.iter
    (fun path ->
      let var = try Autopar.loop_var_at ph.Types.nest path with _ -> "?" in
      match Racecheck.certify ~ards prog ph ~loop_path:path with
      | Racecheck.Proved_independent -> ()
      | Racecheck.Proved_dependent w ->
          Diag.addf c ~severity:Error ~stage:Lint ~where:(where_loop ph var)
            ~code:"LINT-RACE"
            "declared parallel, but iterations share %s (%s, distance %+d): %s"
            w.Racecheck.w_array w.Racecheck.w_kind w.Racecheck.w_distance
            w.Racecheck.w_note
      | Racecheck.Unknown reason -> (
          match Autopar.sampled ~envs prog ph ~loop_path:path with
          | Some true | None ->
              Diag.addf c ~severity:Info ~stage:Lint ~where:(where_loop ph var)
                ~code:"LINT-UNCERTIFIED"
                "parallel marking rests on sampling only; certifier: %s" reason
          | Some false ->
              Diag.addf c ~severity:Error ~stage:Lint
                ~where:(where_loop ph var) ~code:"LINT-RACE"
                "declared parallel, but sampling found a cross-iteration \
                 conflict (certifier: %s)"
                reason))
    (Autopar.marked_paths ph.Types.nest)

(* ------------------------------------------------------------------ *)

let check ?envs ?at ?ards ?diags (prog : Types.program) =
  let envs = match envs with Some e -> e | None -> default_envs prog in
  let ards = match ards with Some a -> a | None -> Descriptor.Ard.of_program prog in
  let c = Diag.collector () in
  List.iter2
    (fun ph ards ->
      rule_multi_parallel c ph;
      rule_refs c prog ph;
      rule_unbound c prog ph;
      rule_nonnormal c ph;
      rule_subscript c ph;
      rule_bounds c prog envs ?at ph;
      rule_race c prog envs ards ph)
    prog.Types.phases ards;
  rule_dead_write c prog;
  let findings = Diag.to_list c in
  (match diags with
  | None -> ()
  | Some d ->
      List.iter
        (fun (f : Diag.t) ->
          Diag.add d ~severity:f.Diag.severity ~stage:f.Diag.stage
            ?where:f.Diag.where ~code:f.Diag.code f.Diag.message)
        findings);
  findings

let autopar ?envs ?diags (prog : Types.program) =
  let envs = match envs with Some e -> e | None -> default_envs prog in
  let prog = Autopar.recognize_reductions ~envs prog in
  let phases =
    List.map
      (fun ph ->
        let d = Racecheck.decide ~envs prog ph in
        Option.iter
          (fun c ->
            List.iter
              (fun (p : Racecheck.probe) ->
                if Racecheck.mismatch p then
                  Diag.addf c ~severity:Error ~stage:Autopar
                    ~where:(where_loop ph p.Racecheck.var)
                    ~code:"RACE-ORACLE-MISMATCH"
                    "certifier says %s but the sampling oracle %s; one of \
                     them is wrong - please report"
                    (match p.Racecheck.verdict with
                    | Racecheck.Proved_independent -> "independent"
                    | _ -> "dependent")
                    (if p.Racecheck.sampled = Some true then
                       "found no conflict on any sample"
                     else "found a conflict"))
              d.Racecheck.probes)
          diags;
        d.Racecheck.phase)
      prog.Types.phases
  in
  { prog with Types.phases }
