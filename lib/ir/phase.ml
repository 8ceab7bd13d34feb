open Symbolic
open Types

type loop_info = { var : string; count : Expr.t; hi : Expr.t; parallel : bool }

type step = { stride : Expr.t; affine : bool }

type site = {
  ref_ : array_ref;
  phi : Expr.t;
  enclosing : string list;
  steps : step list;
}

type t = {
  prog : program;
  phase : phase;
  loops : loop_info list;
  par : loop_info option;
  sites : site list;
  assume : Assume.t;
  bad : string list;
}

exception Invalid_phase of string

(* Phase analysis is a pure function of the program and phase syntax
   (no environment, no probe stream), so results live in an artifact
   store keyed on the structural pair.  The LCG builder
   re-analyzes every phase for every array of the program; with the
   cache each phase is walked once. *)
let cache : t Artifact.store = Artifact.store "phase.analyze"

(* The step of [phi] along [v]: the coefficient where [phi] is affine
   in [v], the forward difference [phi(v+1) - phi(v)] otherwise (the
   two agree wherever both exist). *)
let step_of phi v =
  match Expr.linear_in v phi with
  | Some (a, _) -> { stride = a; affine = true }
  | None ->
      {
        stride = Expr.sub (Expr.subst v (Expr.add (Expr.var v) Expr.one) phi) phi;
        affine = false;
      }

(* The loop variables a concrete walk must enumerate: those appearing
   in loop bounds, those along which some subscript is not affine or
   whose coefficient mentions a loop variable, and a parallel loop
   whose own bound mentions a loop variable (its trip count varies, so
   no one trip count strides it).  A fixpoint over the loops and the
   sites' steps. *)
let bad_vars loops sites =
  let is_loopvar v = List.exists (fun l -> String.equal l.var v) loops in
  let bad = ref [] in
  let add v = if not (List.mem v !bad) then bad := v :: !bad in
  let rec fixpoint () =
    let n0 = List.length !bad in
    List.iter
      (fun l ->
        let outer = List.filter is_loopvar (Expr.vars l.hi) in
        List.iter add outer;
        if l.parallel && outer <> [] then add l.var)
      loops;
    List.iter
      (fun s ->
        List.iter2
          (fun v st ->
            if not (List.mem v !bad) then
              if not st.affine then add v
              else List.iter (fun w -> if is_loopvar w then add w) (Expr.vars st.stride))
          s.enclosing s.steps)
      sites;
    if List.length !bad <> n0 then fixpoint ()
  in
  fixpoint ();
  List.sort String.compare !bad

let analyze_raw (prog : program) (ph : phase) : t =
  let ph = Normalize.phase ph in
  let loops = ref [] in
  let sites = ref [] in
  let rec walk enclosing = function
    | Assign a ->
        List.iter
          (fun (r : array_ref) ->
            let decl =
              try array_decl prog r.array
              with Not_found ->
                raise (Invalid_phase ("undeclared array " ^ r.array))
            in
            let phi = Linearize.address ~dims:decl.dims r.index in
            let enclosing = List.rev enclosing in
            let steps = List.map (step_of phi) enclosing in
            sites := { ref_ = r; phi; enclosing; steps } :: !sites)
          a.refs
    | Loop l ->
        loops :=
          { var = l.var; count = Expr.add l.hi Expr.one; hi = l.hi; parallel = l.parallel }
          :: !loops;
        List.iter (walk (l.var :: enclosing)) l.body
  in
  walk [] (Loop ph.nest);
  let loops = List.rev !loops in
  let sites = List.rev !sites in
  (match List.filter (fun l -> l.parallel) loops with
  | [] | [ _ ] -> ()
  | _ -> raise (Invalid_phase (ph.phase_name ^ ": more than one parallel loop")));
  let par = List.find_opt (fun l -> l.parallel) loops in
  let assume =
    List.fold_left
      (fun asm l -> Assume.add asm l.var (Assume.Expr_range (Expr.zero, l.hi)))
      prog.params loops
  in
  { prog; phase = ph; loops; par; sites; assume; bad = bad_vars loops sites }

let analyze (prog : program) (ph : phase) : t =
  Artifact.find cache (phase_context_key prog ph) (fun () ->
      analyze_raw prog ph)

let sites_of_array t name =
  List.filter (fun s -> String.equal s.ref_.array name) t.sites

let step (s : site) v =
  let rec go = function
    | w :: ws, st :: sts -> if String.equal w v then Some st else go (ws, sts)
    | _ -> None
  in
  go (s.enclosing, s.steps)

let loop_index t v =
  let rec go i = function
    | [] -> raise Not_found
    | l :: _ when String.equal l.var v -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.loops

let par_count t = match t.par with Some l -> l.count | None -> Expr.one
