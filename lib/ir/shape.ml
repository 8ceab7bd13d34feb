open Symbolic
open Types

type par_shape = Outside | Strided of int | Fixed of int

type site = {
  array : string;
  access : access;
  work : int;
  base : int;
  par : par_shape;
  seq : (int * int) list;
  loops : int list;
  run : int list;
}

type t = { par_n : int; sites : site list }

exception Out_of_fragment

(* Partial-evaluation budget: total bad-loop iterations expanded per
   phase.  Registry kernels at seed sizes need a few dozen (tfft2's
   outer stage loop, trisolve's triangular parallel loop); the budget
   exists so a size=2^30 triangular nest degrades to [None] instead of
   hanging. *)
let expand_budget = 8192

let cache : t option Artifact.store = Artifact.store "shape.sites"

(* Loop nodes and reference sites in a statement subtree: a loop's id
   is its preorder position in the nest, and a reference's its
   position in [Phase.t.sites], so a partially evaluated loop's body
   gets the same ids in every run. *)
let rec loops_in = function
  | Assign _ -> 0
  | Loop l -> List.fold_left (fun n s -> n + loops_in s) 1 l.body

let rec sites_in = function
  | Assign a -> List.length a.refs
  | Loop l -> List.fold_left (fun n s -> n + sites_in s) 0 l.body

let of_phase_raw (prog : program) (env : Env.t) (ph : phase) : t option =
  match Phase.analyze prog ph with
  | exception Phase.Invalid_phase _ -> None
  | pc -> (
      let bad v = List.mem v pc.bad in
      let phase_sites = Array.of_list pc.sites in
      try
        let env0 = Env.ephemeral env in
        let budget = ref expand_budget in
        let sites = ref [] in
        (* Good loop vars are bound to 0 on entry, so evaluating φ
           directly gives the base address (parallel iteration 0, all
           sequential indices 0), and the steps along good vars - which
           the partial-evaluation fixpoint guarantees are affine and
           mention only bad vars and parameters - evaluate as well.
           [goods]: (var, count) of enclosing good sequential loops,
           outermost first, and [loops] their ids; [par]: the site's
           parallel-iteration shape so far; [run]: the site's run so
           far; [id]: the statement's preorder loop id; [first]: the
           index of its first reference site. *)
        let rec walk env goods loops par run (id, first) = function
          | Assign a ->
              List.iteri
                (fun k (r : array_ref) ->
                  let site = phase_sites.(first + k) in
                  let coef v =
                    match Phase.step site v with
                    | Some { stride; affine = true } -> Env.eval env stride
                    | Some { affine = false; _ } | None -> raise Out_of_fragment
                  in
                  let par =
                    match par with
                    | `No -> Outside
                    | `Var v -> Strided (coef v)
                    | `At i -> Fixed i
                  in
                  let base = Env.eval env site.phi in
                  let seq = List.map (fun (v, c) -> (c, coef v)) goods in
                  sites :=
                    {
                      array = r.array;
                      access = r.access;
                      work = (if k = 0 then a.work else 0);
                      base;
                      par;
                      seq;
                      loops;
                      run;
                    }
                    :: !sites)
                a.refs
          | Loop l ->
              let hi = Env.eval env l.hi in
              let body env goods loops par run =
                ignore
                  (List.fold_left
                     (fun (id, first) s ->
                       walk env goods loops par run (id, first) s;
                       (id + loops_in s, first + sites_in s))
                     (id + 1, first) l.body)
              in
              if hi >= 0 then
                if bad l.var then
                  for v = 0 to hi do
                    decr budget;
                    if !budget < 0 then raise Out_of_fragment;
                    let env = Env.add l.var v env in
                    match par with
                    | `No when l.parallel -> body env goods loops (`At v) run
                    | `No -> body env goods loops par (run @ [ v ])
                    | `Var _ | `At _ -> body env goods loops par run
                  done
                else begin
                  let env = Env.add l.var 0 env in
                  if l.parallel then body env goods loops (`Var l.var) run
                  else body env (goods @ [ (l.var, hi + 1) ]) (loops @ [ id ]) par run
                end
        in
        walk env0 [] [] `No [] (0, 0) (Loop pc.phase.nest);
        (* Read only by [Strided] sites: a partially-evaluated parallel
           loop's bound may mention loop variables. *)
        let par_n =
          match pc.par with
          | Some l when not (bad l.var) -> max 0 (Env.eval env0 l.hi + 1)
          | Some _ | None -> 1
        in
        Some { par_n; sites = List.rev !sites }
      with
      | Out_of_fragment | Env.Unbound _ | Expr.Non_integral _
      | Division_by_zero | Qnum.Division_by_zero ->
        None)

(* A sampled environment is used once: its shapes bypass the store, as
   its evaluations do. *)
let of_phase prog env ph =
  if Env.is_ephemeral env then of_phase_raw prog env ph
  else
    Artifact.find cache
      Artifact.Key.(list [ Types.phase_context_key prog ph; int (Env.id env) ])
      (fun () -> of_phase_raw prog env ph)

let events (s : site) =
  List.fold_left (fun acc (c, _) -> Lattice.Safe.mul_sat acc c) 1 s.seq

let occurrences (t : t) (s : site) =
  match s.par with Strided _ -> t.par_n | Outside | Fixed _ -> 1

let emits (t : t) (s : site) =
  events s > 0
  && match s.par with Strided _ -> t.par_n > 0 | Outside | Fixed _ -> true

let on_array (t : t) array =
  List.filter (fun s -> String.equal s.array array && emits t s) t.sites

let box (t : t) (s : site) =
  let dims =
    match s.par with
    | Outside | Fixed _ -> s.seq
    | Strided st -> (t.par_n, st) :: s.seq
  in
  Lattice.make ~base:s.base dims

let ranges (t : t) =
  let arrays =
    List.fold_left
      (fun acc s -> if emits t s && not (List.mem s.array acc) then s.array :: acc else acc)
      [] t.sites
  in
  try
    Some
      (List.rev_map
         (fun a ->
           let lo, hi = Option.get (Lattice.bounds (List.filter_map (box t) (on_array t a))) in
           (a, lo, hi))
         arrays)
  with Lattice.Overflow -> None

let total_work (t : t) =
  List.fold_left
    (fun acc s ->
      if s.work = 0 then acc
      else
        let per_iter = Lattice.Safe.mul_sat s.work (events s) in
        Lattice.Safe.add_sat acc
          (Lattice.Safe.mul_sat (occurrences t s) per_iter))
    0 t.sites
