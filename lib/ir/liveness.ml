open Symbolic
open Types

type attr = R | W | RW | P

let equal_attr a b =
  match (a, b) with
  | R, R | W, W | RW, RW | P, P -> true
  | (R | W | RW | P), _ -> false

let attr_to_string = function R -> "R" | W -> "W" | RW -> "R/W" | P -> "P"

let static_attr _prog ph ~array =
  let refs =
    stmt_refs (Loop ph.nest) |> List.filter (fun r -> String.equal r.array array)
  in
  let has k = List.exists (fun r -> equal_access r.access k) refs in
  match (has Read, has Write) with
  | true, true -> RW
  | true, false -> R
  | false, true -> W
  | false, false -> R

let def_before_use_enum prog env ph ~array =
  (* Per parallel iteration, every read must hit a location already
     written by the same iteration. *)
  let written = Hashtbl.create 64 in
  let current = ref None in
  let ok = ref true in
  Enumerate.iter prog env ph ~f:(fun ~par ~array:a ~addr access ~work:_ ->
      if String.equal a array then begin
        if par <> !current then begin
          Hashtbl.reset written;
          current := par
        end;
        match access with
        | Write -> Hashtbl.replace written addr ()
        | Read -> if not (Hashtbl.mem written addr) then ok := false
      end);
  !ok

(* ------------------------------------------------------------------ *)
(* Closed-form liveness.  The symbolic rules answer only when certain
   (their verdict must equal the enumerating oracle's, since attributes
   feed the printed reports); anything subtler returns [None] and the
   caller falls back to enumeration, counted as a fragment exit.       *)

let equal_par a b =
  match (a, b) with
  | Shape.Outside, Shape.Outside -> true
  | Shape.Strided x, Shape.Strided y -> x = y
  | Shape.Fixed x, Shape.Fixed y -> x = y
  | (Shape.Outside | Shape.Strided _ | Shape.Fixed _), _ -> false

(* Does [w] hold, at every event, the address [r] holds at the event
   with the same indices: the same base, parallel shape and sequential
   dimensions? *)
let same_shape (w : Shape.site) (r : Shape.site) =
  w.base = r.base && equal_par w.par r.par && w.seq = r.seq

(* Does [w]'s box contain [r]'s within every instance of the good
   sequential loops the two share?  Shared loops enclose both sites, so
   they are a common prefix of both dimension lists; their dimensions
   must be identical (then both boxes move together from instance to
   instance), and the remaining dimensions span each site's box within
   one instance, parallel dimension dropped. *)
let box_covers (w : Shape.site) (r : Shape.site) =
  let rec split ws rs wl rl =
    match (ws, rs, wl, rl) with
    | w :: ws, r :: rs, a :: wl, b :: rl when a = b ->
        if w = r then split ws rs wl rl else None
    | _ -> Some (ws, rs)
  in
  match split w.seq r.seq w.loops r.loops with
  | None -> false
  | Some (ws, rs) -> (
      match (Lattice.make ~base:r.base rs, Lattice.make ~base:w.base ws) with
      | Some rb, Some wb -> Lattice.subset rb wb = Lattice.Yes
      | _ -> false)

(* [def_before_use] in closed form.  Sound cases:
   - no reads on the array: vacuously true;
   - the first emitting site on the array is a read: its first event is
     the first event on the array in the whole phase, so it cannot be
     covered - definitely false;
   - every read site is covered by a strictly-earlier write site in the
     same parallel iteration - definitely true.  The oracle resets its
     per-iteration write table whenever the parallel iteration changes,
     so a cover counts only within one:
     - a [Strided] read is covered by a write of the same run (the
       partially evaluated loops above the parallel loop take the same
       values) and parallel stride whose events hold the read's
       addresses in every instance of the good loops they share: an
       identical shape, or a box cover ({!box_covers}).  Every event
       of the write in such an instance precedes every event of the
       read there, since the sites diverge below the shared loops and
       the write comes first in textual order;
     - a read outside the parallel loop, or pinned to one iteration of
       a partially-evaluated one (which may run again under an outer
       loop), needs a write of identical shape with no emitting site
       of another parallel shape between them. *)
let def_before_use_symbolic shape ~array =
  match shape with
  | None -> None
  | Some t -> (
      try
        let sites =
          List.mapi (fun i s -> (i, s)) t.sites
          |> List.filter (fun (_, s) -> Shape.emits t s)
        in
        let mine =
          List.filter (fun (_, s) -> String.equal s.Shape.array array) sites
        in
        match mine with
        | [] -> Some true
        | (_, first) :: _ when Types.equal_access first.access Types.Read ->
            Some false
        | _ ->
            let same_group wi ri par =
              List.for_all
                (fun (j, s) -> j <= wi || j >= ri || equal_par s.Shape.par par)
                sites
            in
            let covers (wi, (w : Shape.site)) (ri, (r : Shape.site)) =
              wi < ri
              && Types.equal_access w.access Types.Write
              &&
              match r.par with
              | Shape.Outside | Shape.Fixed _ -> same_shape w r && same_group wi ri r.par
              | Shape.Strided _ ->
                  w.run = r.run && equal_par w.par r.par
                  && (same_shape w r || box_covers w r)
            in
            let covered ((_, (r : Shape.site)) as read) =
              Types.equal_access r.access Types.Write
              || List.exists (fun write -> covers write read) mine
            in
            if List.for_all covered mine then Some true else None
      with Lattice.Overflow -> None)

let dead_after_enum prog env k ~array =
  (* Forward scan over the phases executed after phase k (wrapping once
     when the program repeats): a location written by k is live if some
     later phase reads it before overwriting it. *)
  let exposed = Hashtbl.create 64 in
  (* start: all addresses phase k writes *)
  Enumerate.iter prog env (List.nth prog.phases k) ~f:(fun ~par:_ ~array:a ~addr access ~work:_ ->
      if String.equal a array && equal_access access Write then
        Hashtbl.replace exposed addr ());
  let n = List.length prog.phases in
  let order =
    (* Phases after k in execution order; with repetition the whole
       program runs again, including phase k's predecessors and k itself. *)
    let tail = List.init (n - k - 1) (fun i -> k + 1 + i) in
    if prog.repeats then tail @ List.init (n - List.length tail) (fun i -> i mod n)
    else tail
  in
  let live = ref false in
  List.iter
    (fun g ->
      if (not !live) && Hashtbl.length exposed > 0 then begin
        let killed = Hashtbl.create 64 in
        Enumerate.iter prog env (List.nth prog.phases g)
          ~f:(fun ~par:_ ~array:a ~addr access ~work:_ ->
            if String.equal a array then
              match access with
              | Read ->
                  if Hashtbl.mem exposed addr && not (Hashtbl.mem killed addr)
                  then live := true
              | Write -> Hashtbl.replace killed addr ());
        Hashtbl.iter (fun addr () -> Hashtbl.remove exposed addr) killed
      end)
    order;
  (* A non-repeating program's arrays are outputs: values that survive
     to program exit are live. *)
  (not !live) && (prog.repeats || Hashtbl.length exposed = 0)

(* Is every address the phase writes on [array] read before it is
   written?  It is when every write site has a textually earlier read
   site of the same shape: at the write's first event on an address,
   the read's event with the same indices holds that address and comes
   first (the two agree on every loop they share, and the read is
   earlier wherever they diverge). *)
let reads_first (t : Shape.t) ~array =
  let rec go seen = function
    | [] -> true
    | (s : Shape.site) :: rest -> (
        match s.access with
        | Types.Read -> go (s :: seen) rest
        | Types.Write -> List.exists (fun r -> same_shape s r) seen && go seen rest)
  in
  go [] (Shape.on_array t array)

(* [dead_after] in closed form.  The exposed set is carried as an exact
   list of boxes; each later phase either certainly leaves it alone
   (all its reads and writes provably disjoint), certainly reads it
   while unable to kill it first (some read definitely intersects and
   the phase writes nothing on the array, or reads every address it
   writes before writing it: {!reads_first}), or certainly erases it
   (every exposed box inside some write box).  Any subtler interaction
   - partial kills, possible-but-unproven overlap - returns [None]. *)
let dead_after_symbolic prog (shapes : Shape.t option Lazy.t array) k ~array =
  let exception Subtle in
  try
    let shape_of g =
      match Lazy.force shapes.(g) with
      | Some t -> t
      | None -> raise Subtle
    in
    let boxes_of t acc =
      List.filter_map
        (fun (s : Shape.site) ->
          if Types.equal_access s.access acc then Shape.box t s else None)
        (Shape.on_array t array)
    in
    let tk = shape_of k in
    let exposed = ref (boxes_of tk Types.Write) in
    let n = List.length prog.phases in
    let order =
      let tail = List.init (n - k - 1) (fun i -> k + 1 + i) in
      if prog.repeats then
        tail @ List.init (n - List.length tail) (fun i -> i mod n)
      else tail
    in
    let all_disjoint xs ys =
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              match Lattice.disjoint x y with
              | Lattice.Yes -> true
              | Lattice.No | Lattice.Unknown -> false)
            ys)
        xs
    in
    let some_certainly_meets xs ys =
      List.exists
        (fun x ->
          List.exists
            (fun y ->
              match Lattice.disjoint x y with
              | Lattice.No -> true
              | Lattice.Yes | Lattice.Unknown -> false)
            ys)
        xs
    in
    let live = ref false in
    List.iter
      (fun g ->
        if (not !live) && !exposed <> [] then begin
          let tg = shape_of g in
          let reads = boxes_of tg Types.Read
          and writes = boxes_of tg Types.Write in
          if all_disjoint reads !exposed then
            if all_disjoint writes !exposed then ()
            else if
              List.for_all
                (fun e ->
                  List.exists
                    (fun w ->
                      match Lattice.subset e w with
                      | Lattice.Yes -> true
                      | Lattice.No | Lattice.Unknown -> false)
                    writes)
                !exposed
            then exposed := []
            else raise Subtle
          else if reads_first tg ~array && some_certainly_meets reads !exposed then
            (* nothing in this phase can kill an address first *)
            live := true
          else raise Subtle
        end)
      order;
    Some ((not !live) && (prog.repeats || !exposed = []))
  with Subtle | Lattice.Overflow -> None

let def_before_use prog env shapes k ~array =
  let ph = List.nth prog.phases k in
  Lattice.closed_or_enumerate ~stage:"liveness"
    ~reason:(fun () -> array ^ " def-before-use in " ^ ph.phase_name)
    ~symbolic:(fun () -> def_before_use_symbolic (Lazy.force shapes.(k)) ~array)
    ~enum:(fun () -> def_before_use_enum prog env ph ~array)

let dead_after prog env shapes k ~array =
  Lattice.closed_or_enumerate ~stage:"liveness"
    ~reason:(fun () -> array ^ " dead-after")
    ~symbolic:(fun () -> dead_after_symbolic prog shapes k ~array)
    ~enum:(fun () -> dead_after_enum prog env k ~array)

let attr prog env shapes k ~array =
  match static_attr prog (List.nth prog.phases k) ~array with
  | R -> R
  | (W | RW) as a ->
      if def_before_use prog env shapes k ~array && dead_after prog env shapes k ~array
      then P
      else a
  | P -> assert false

let attrs prog env shapes =
  List.map
    (fun (a : array_decl) ->
      ( a.name,
        Array.init (List.length prog.phases) (fun k -> attr prog env shapes k ~array:a.name) ))
    prog.arrays
