open Symbolic
open Types

type loop_info = { var : string; count : Expr.t; hi : Expr.t; parallel : bool }

type site = { ref_ : array_ref; phi : Expr.t; enclosing : string list }

type t = {
  prog : program;
  phase : phase;
  loops : loop_info list;
  par : loop_info option;
  sites : site list;
  assume : Assume.t;
}

exception Invalid_phase of string

(* Phase analysis is a pure function of the program and phase syntax
   (no environment, no probe stream), so results live in an artifact
   store keyed on the structural pair.  The LCG builder
   re-analyzes every phase for every array of the program; with the
   cache each phase is walked once. *)
let cache : t Artifact.store = Artifact.store "phase.analyze"

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
            sites := { ref_ = r; phi; enclosing = List.rev enclosing } :: !sites)
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
  { prog; phase = ph; loops; par; sites; assume }

let analyze (prog : program) (ph : phase) : t =
  Artifact.find cache (phase_context_key prog ph) (fun () ->
      analyze_raw prog ph)

let sites_of_array t name =
  List.filter (fun s -> String.equal s.ref_.array name) t.sites

let loop_index t v =
  let rec go i = function
    | [] -> raise Not_found
    | l :: _ when String.equal l.var v -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.loops

let par_count t = match t.par with Some l -> l.count | None -> Expr.one
