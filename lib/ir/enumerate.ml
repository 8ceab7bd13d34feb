open Symbolic
open Types

(* Every address-by-address walk passes through here; the counter is
   the "did we enumerate at all?" probe the symbolic-coverage checks
   assert on (zero on the closed-form hot path). *)
let iter_count = Metrics.counter "enum.iter"

(* Shared by name with the descriptor-region sweeps: the events a walk
   visited, added once per walk. *)
let address_count = Metrics.counter "enum.addresses"

type shape = Const of int | Affine of int * (int * int) list | Opaque

type site = {
  array : string;
  access : access;
  addr : int array -> int;
}

type node =
  | Stmt of { refs : site list; work : int }
  | Nest of {
      lo : int array -> int;
      hi : int array -> int;
      slot : int;
      parallel : bool;
      body : node list;
    }

type nest = {
  root : node;
  nslots : int;
  shapes : shape list;
  unsupported : string option;
}

(* [x] in [-m, m], for [0 <= m <= max_int / 2]: one branch, and a
   wrapped [x + m] or [m - x] reads as out of range. *)
let within m x = (x + m) lor (m - x) >= 0

(* [e] mentions loop variables only: peel one [linear_in] per scope
   variable; integer coefficients throughout make it affine. *)
let shape_of scope e =
  let rec peel residual acc = function
    | [] ->
        Option.map
          (fun c0 -> if acc = [] then Const c0 else Affine (c0, List.rev acc))
          (Expr.to_int residual)
    | (v, slot) :: rest -> (
        match Expr.linear_in v residual with
        | Some (a, b) when Expr.to_int a = Some 0 -> peel b acc rest
        | Some (a, b) ->
            Option.bind (Expr.to_int a) (fun c -> peel b ((slot, c) :: acc) rest)
        | None -> None)
  in
  match peel e [] scope with
  | Some s -> s
  | None | (exception Qnum.Overflow) -> Opaque

let compile (prog : program) (env : Env.t) (ph : phase) =
  let ph = Normalize.phase ph in
  let shapes = ref [] and unsupported = ref None and nslots = ref 0 in
  let fail msg = if !unsupported = None then unsupported := Some msg in
  (* Parameters are substituted out first.  An expression that is not
     affine is compiled by [Expr.compile_int], which raises the original
     exception when (and only if) it is evaluated. *)
  let expr scope e =
    let shape, e =
      match
        Expr.subst_env
          (List.filter_map
             (fun v ->
               if List.mem_assoc v scope then None
               else Some (v, Expr.int (Env.find env v)))
             (Expr.vars e))
          e
      with
      | e -> (shape_of scope e, e)
      | exception ex ->
          fail
            (match ex with
            | Env.Unbound v -> Printf.sprintf "parameter %s has no binding" v
            | ex -> Printexc.to_string ex);
          (Opaque, e)
    in
    shapes := shape :: !shapes;
    (* Loop variables read their slot; a parameter left in [e] (its
       substitution failed) reads [env], raising [Env.Unbound] when
       evaluated if it has no binding. *)
    let exact () =
      Expr.compile_int
        (fun v ->
          match List.assoc_opt v scope with
          | Some s -> Expr.Slot s
          | None -> ( match Env.find env v with n -> Expr.Fixed n | exception Env.Unbound _ -> Expr.Free))
        e
    in
    (* Affine forms run in native ints while each of the k terms and
       [c0] stay within [max_int / (k + 1)], so the sum cannot
       overflow; beyond that the compiled expression answers exactly,
       raising [Qnum.Overflow] where evaluation would. *)
    let eval =
      match shape with
      | Const c -> fun (_ : int array) -> c
      | Opaque -> exact ()
      | Affine (c0, coeffs) -> (
          let q = max_int / (List.length coeffs + 1) in
          let exact = exact () in
          match List.map (fun (s, c) -> (s, c, q / abs c)) coeffs with
          | _ when c0 > q || c0 < -q -> exact
          | [ (s1, c1, m1) ] ->
              fun slots ->
                let x1 = slots.(s1) in
                if within m1 x1 then c0 + (c1 * x1) else exact slots
          | [ (s1, c1, m1); (s2, c2, m2) ] ->
              fun slots ->
                let x1 = slots.(s1) and x2 = slots.(s2) in
                if within m1 x1 && within m2 x2 then c0 + (c1 * x1) + (c2 * x2)
                else exact slots
          | coeffs ->
              fun slots ->
                if List.for_all (fun (s, _, m) -> within m slots.(s)) coeffs then
                  List.fold_left (fun a (s, c, _) -> a + (c * slots.(s))) c0 coeffs
                else exact slots)
    in
    eval
  in
  (* Column-major, subscripts evaluated left to right; the trailing
     extent never multiplies, so it stays unevaluated (sentinel 0) and
     an array whose size-only dimension does not evaluate can still be
     enumerated. *)
  let rec flat idx dims =
    match (idx, dims) with
    | [ i ], [ _ ] -> i
    | i :: idx, d :: dims ->
        let rest = flat idx dims in
        fun slots ->
          let a = i slots in
          a + (d * rest slots)
    | _ -> fun _ -> 0
  in
  let site scope (r : array_ref) =
    let dims =
      match array_decl prog r.array with
      | exception Not_found ->
          fail ("undeclared array " ^ r.array);
          Error Not_found
      | { dims = []; _ } -> Ok []
      | { dims; _ } -> (
          match List.map (Env.eval env) (List.tl (List.rev dims)) with
          | rest -> Ok (List.rev (0 :: rest))
          | exception ex ->
              fail (Printf.sprintf "extent of %s does not evaluate" r.array);
              Error ex)
    in
    let idx = List.map (expr scope) r.index in
    let addr =
      match dims with
      | Error ex -> fun _ -> raise ex
      | Ok dims when List.compare_lengths dims idx = 0 -> flat idx dims
      | Ok _ ->
          fail ("rank mismatch on " ^ r.array);
          fun slots ->
            List.iter (fun i -> ignore (i slots)) idx;
            invalid_arg "rank mismatch"
    in
    { array = r.array; access = r.access; addr }
  in
  let rec stmt scope = function
    | Assign a -> Stmt { refs = List.map (site scope) a.refs; work = a.work }
    | Loop l ->
        let lo = expr scope l.lo in
        let hi = expr scope l.hi in
        let slot = List.length scope in
        nslots := max !nslots (slot + 1);
        let body = List.map (stmt ((l.var, slot) :: scope)) l.body in
        Nest { lo; hi; slot; parallel = l.parallel; body }
  in
  let root = stmt [] (Loop ph.nest) in
  { root; nslots = !nslots; shapes = List.rev !shapes; unsupported = !unsupported }

let iter ?only (prog : program) (env : Env.t) (ph : phase) ~f =
  Metrics.incr iter_count;
  let nest = compile prog env ph in
  let slots = Array.make nest.nslots 0 and events = ref 0 in
  (* Under [only = (array, pars)] the parallel loop runs just the
     values in [pars], and only [array]'s sites inside it report. *)
  let keep par (r : site) =
    match only with
    | None -> true
    | Some (array, _) -> par <> None && String.equal r.array array
  in
  let rec walk par = function
    | Stmt s ->
        List.iteri
          (fun k r ->
            if keep par r then begin
              incr events;
              f ~par ~array:r.array ~addr:(r.addr slots) r.access
                ~work:(if k = 0 then s.work else 0)
            end)
          s.refs
    | Nest l -> (
        let lo = l.lo slots and hi = l.hi slots in
        match only with
        | Some (_, pars) when l.parallel ->
            List.iter
              (fun v ->
                if lo <= v && v <= hi then begin
                  slots.(l.slot) <- v;
                  List.iter (walk (Some v)) l.body
                end)
              pars
        | _ ->
            for v = lo to hi do
              slots.(l.slot) <- v;
              let par = if l.parallel then Some v else par in
              List.iter (walk par) l.body
            done)
  in
  Fun.protect
    ~finally:(fun () -> Metrics.incr ~by:!events address_count)
    (fun () -> walk None nest.root)

let addresses prog env ph ~array =
  let acc = ref [] in
  iter prog env ph ~f:(fun ~par:_ ~array:a ~addr access ~work:_ ->
      if String.equal a array then acc := (addr, access) :: !acc);
  List.rev !acc

let address_set prog env ph ~array =
  let tbl = Hashtbl.create 256 in
  iter prog env ph ~f:(fun ~par:_ ~array:a ~addr _ ~work:_ ->
      if String.equal a array then Hashtbl.replace tbl addr ());
  tbl

let iteration_addresses prog env ph ~array ~par =
  let acc = ref [] in
  iter ~only:(array, [ par ]) prog env ph ~f:(fun ~par:_ ~array:_ ~addr access ~work:_ ->
      acc := (addr, access) :: !acc);
  List.rev !acc
