open Symbolic
open Types

(* All loops of a nest in pre-order, with their paths (child indices of
   Loop statements only, from the root). *)
let loop_paths (nest : loop) : int list list =
  let acc = ref [] in
  let rec walk path (l : loop) =
    acc := List.rev path :: !acc;
    let li = ref 0 in
    List.iter
      (fun s ->
        match s with
        | Loop inner ->
            walk (!li :: path) inner;
            incr li
        | Assign _ -> ())
      l.body
  in
  walk [] nest;
  List.rev !acc

let rec clear_markings (l : loop) =
  {
    l with
    parallel = false;
    body =
      List.map
        (function Loop i -> Loop (clear_markings i) | Assign a -> Assign a)
        l.body;
  }

(* Rewrite the nest so that exactly the loop at [path] is parallel. *)
let set_parallel (nest : loop) (path : int list) : loop =
  let rec go (l : loop) path =
    let parallel = path = [] in
    let li = ref (-1) in
    let body =
      List.map
        (fun s ->
          match s with
          | Loop inner ->
              incr li;
              Loop
                (match path with
                | k :: rest when k = !li -> go inner rest
                | _ -> clear_markings inner)
          | Assign a -> Assign a)
        l.body
    in
    { l with parallel; body }
  in
  go nest path

let independent (prog : program) (env : Env.t) (ph : phase) ~loop_path =
  let candidate = { ph with nest = set_parallel ph.nest loop_path } in
  (* per address: the single iteration that writes it / reads it, with
     a "many" marker; conflicts are write + any access from a distinct
     iteration.  Tables reset at each new instance of the loop (outer
     indices advanced), detected by the iteration value decreasing. *)
  let writes = Hashtbl.create 256 and reads = Hashtbl.create 256 in
  let ok = ref true in
  let prev = ref min_int in
  Enumerate.iter prog env candidate ~f:(fun ~par ~array ~addr access ~work:_ ->
      match par with
      | None -> () (* outside the candidate loop: ignore *)
      | Some v ->
          if v < !prev then begin
            Hashtbl.reset writes;
            Hashtbl.reset reads
          end;
          prev := v;
          let key = (array, addr) in
          let conflicts tbl =
            match Hashtbl.find_opt tbl key with
            | None -> false
            | Some w -> w <> v
          in
          (match access with
          | Write ->
              if conflicts writes || conflicts reads then ok := false;
              Hashtbl.replace writes key v
          | Read ->
              if conflicts writes then ok := false;
              (* record only the first reader; a second distinct reader
                 matters only against writers, checked above and on the
                 write side *)
              if not (Hashtbl.mem reads key) then Hashtbl.replace reads key v);
          ());
  !ok

let unevaluable = function
  | Phase.Invalid_phase _ | Env.Unbound _ | Expr.Non_integral _ | Not_found
  | Invalid_argument _ | Division_by_zero | Qnum.Overflow
  | Qnum.Division_by_zero ->
      true
  | _ -> false

let sampled ~envs (prog : program) (ph : phase) ~loop_path =
  if envs = [] then None
  else
    try Some (List.for_all (fun env -> independent prog env ph ~loop_path) envs)
    with e when unevaluable e -> None

let rec loop_at (l : loop) = function
  | [] -> l
  | k :: rest ->
      let loops =
        List.filter_map (function Loop i -> Some i | Assign _ -> None) l.body
      in
      loop_at (List.nth loops k) rest

let loop_var_at (nest : loop) (path : int list) : string =
  (loop_at nest path).var

let marked_paths (nest : loop) =
  List.filter (fun path -> (loop_at nest path).parallel) (loop_paths nest)

(* ------------------------------------------------------------------ *)
(* Reduction privatization *)

let rec subst_acc ~acc ~part v = function
  | Assign a ->
      Assign
        {
          a with
          refs =
            List.map
              (fun (r : array_ref) ->
                if String.equal r.array acc then
                  { r with array = part; index = [ Expr.var v ] }
                else r)
              a.refs;
        }
  | Loop l -> Loop { l with body = List.map (subst_acc ~acc ~part v) l.body }

(* Does array [acc] appear only as [read acc(e); ... write acc(e)] pairs
   within single statements, with [e] free of every loop variable?  If
   so return that constant subscript. *)
let accumulator_subscript (ph : phase) acc =
  let loop_vars =
    let rec go acc = function
      | Assign _ -> acc
      | Loop l -> List.fold_left go (l.var :: acc) l.body
    in
    go [] (Loop ph.nest)
  in
  let ok = ref true and subscript = ref None in
  let rec walk = function
    | Loop l -> List.iter walk l.body
    | Assign a ->
        let mine =
          List.filter (fun (r : array_ref) -> String.equal r.array acc) a.refs
        in
        if mine <> [] then begin
          let reads, writes =
            List.partition (fun (r : array_ref) -> r.access = Read) mine
          in
          match (reads, writes) with
          | [ r ], [ w ] when r.index = w.index -> (
              match r.index with
              | [ e ] when not (List.exists (fun v -> Expr.mem_var v e) loop_vars)
                -> (
                  match !subscript with
                  | None -> subscript := Some e
                  | Some e0 -> if not (Expr.equal e0 e) then ok := false)
              | _ -> ok := false)
          | _ -> ok := false
        end
  in
  walk (Loop ph.nest);
  if !ok then !subscript else None

let recognize_reductions ~envs (prog : program) : program =
  let fresh_arrays = ref [] in
  let phases =
    List.concat_map
      (fun (ph : phase) ->
        let root = ph.nest in
        (* candidate accumulators: arrays whose every appearance is a
           read-modify-write with a loop-invariant subscript *)
        let candidates =
          List.filter_map
            (fun a -> Option.map (fun e -> (a, e)) (accumulator_subscript ph a))
            (Types.phase_arrays ph)
        in
        (* only attack phases that have one and whose root loop is not
           already independent *)
        match candidates with
        | [] -> [ ph ]
        | _ when sampled ~envs prog ph ~loop_path:[] = Some true -> [ ph ]
        | (acc, e) :: _ ->
            let part = "__red_" ^ acc in
            let v = root.var in
            let rewritten =
              match subst_acc ~acc ~part v (Loop root) with
              | Loop nest -> { ph with nest }
              | Assign _ -> assert false
            in
            (* is the rewritten root loop independent now? *)
            let count = Expr.add (Expr.sub root.hi root.lo) Expr.one in
            let trial_prog =
              {
                prog with
                arrays = prog.arrays @ [ { name = part; dims = [ count ] } ];
              }
            in
            let indep =
              sampled ~envs trial_prog rewritten ~loop_path:[] = Some true
            in
            if not indep then [ ph ]
            else begin
              fresh_arrays := { name = part; dims = [ count ] } :: !fresh_arrays;
              let combine =
                {
                  phase_name = ph.phase_name ^ "_COMBINE";
                  nest =
                    {
                      var = v;
                      lo = Expr.zero;
                      hi = Expr.sub count Expr.one;
                      step = Expr.one;
                      parallel = false;
                      body =
                        [
                          Assign
                            {
                              refs =
                                [
                                  { array = part; index = [ Expr.var v ]; access = Read };
                                  { array = acc; index = [ e ]; access = Write };
                                ];
                              work = 1;
                            };
                        ];
                    };
                }
              in
              [ rewritten; combine ]
            end)
      prog.phases
  in
  { prog with phases; arrays = prog.arrays @ List.rev !fresh_arrays }
