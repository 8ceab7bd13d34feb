open Symbolic
open Locality
open Ilp

type message = {
  src : int;
  dst : int;
  ranges : (int * int) list;
  words : int;
}

type event =
  | Redistribute of {
      array : string;
      before_phase : int;
      messages : message list;
    }
  | Frontier of { array : string; after_phase : int; messages : message list }

type schedule = event list

(* Narrowed to the symbolic-evaluation failures only (an undeclared
   array is an internal invariant violation and must keep crashing): a
   size that does not evaluate means this array's messages cannot be
   generated, which [on_error] surfaces and [None] makes explicit so
   callers skip the array's events instead of doing layout math on a
   phantom size-0 array. *)
let array_size ?on_error (lcg : Lcg.t) array =
  let report msg =
    match on_error with Some f -> f msg | None -> ()
  in
  try
    Some
      (Env.eval lcg.env
         (Ir.Linearize.size ~dims:(Ir.Types.array_decl lcg.prog array).dims))
  with
  | Env.Unbound v ->
      report
        (Printf.sprintf
           "array %s: size has unbound parameter %s; omitting its messages"
           array v);
      None
  | Expr.Non_integral e ->
      report
        (Printf.sprintf
           "array %s: size is non-integral (%s); omitting its messages" array
           e);
      None
  | Qnum.Overflow ->
      report
        (Printf.sprintf "array %s: size overflowed; omitting its messages"
           array);
      None

let size_of ?on_error lcg =
  let sizes = Hashtbl.create 8 in
  fun array ->
    match Hashtbl.find_opt sizes array with
    | Some s -> s
    | None ->
        let s = array_size ?on_error lcg array in
        Hashtbl.add sizes array s;
        s

(* Group (src, dst, addr) triples into aggregated messages with maximal
   contiguous ranges. *)
let aggregate (triples : (int * int * int) list) : message list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (src, dst, addr) ->
      let key = (src, dst) in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key (addr :: prev))
    triples;
  Hashtbl.fold
    (fun (src, dst) addrs acc ->
      let sorted = List.sort_uniq compare addrs in
      let ranges =
        List.fold_left
          (fun acc a ->
            match acc with
            | (lo, hi) :: rest when a = hi + 1 -> (lo, a) :: rest
            | _ -> (a, a) :: acc)
          [] sorted
        |> List.rev
      in
      let words = List.length sorted in
      { src; dst; ranges; words } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst))

(* Group (src, dst, [lo..hi]) range contributions into the same
   aggregated messages [aggregate] builds from per-address triples:
   per (src, dst) pair, maximal contiguous ascending ranges, words =
   addresses covered. *)
let aggregate_ranges (ranges : (int * int * (int * int)) list) : message list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (src, dst, r) ->
      let key = (src, dst) in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key (r :: prev))
    ranges;
  Hashtbl.fold
    (fun (src, dst) rs acc ->
      let ranges = Lattice.Iv.norm rs in
      let words = List.fold_left (fun a (lo, hi) -> a + (hi - lo + 1)) 0 ranges in
      { src; dst; ranges; words } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst))

(* Copy-in elision: entering a new layout epoch needs no
   redistribution when the epoch's accesses are all covered by writes
   performed inside the epoch before any exposed read - checked
   conservatively as "the epoch's first accessing phase writes a
   superset of everything the epoch touches". *)
let write_covers_epoch_enum (lcg : Lcg.t) (l : Distribution.layout) =
    let phases_of r = List.filteri (fun k _ -> r k) lcg.prog.phases in
    let head = List.nth lcg.prog.phases l.first_phase in
    let written = Hashtbl.create 256 in
    let all = Hashtbl.create 256 in
    Ir.Enumerate.iter lcg.prog lcg.env head
      ~f:(fun ~par:_ ~array ~addr access ~work:_ ->
        if String.equal array l.array then begin
          Hashtbl.replace all addr ();
          match access with
          | Ir.Types.Write -> Hashtbl.replace written addr ()
          | Ir.Types.Read -> ()
        end);
    (* the head phase itself must be write-only on this array *)
    let head_write_only =
      Hashtbl.length written = Hashtbl.length all && Hashtbl.length all > 0
    in
    head_write_only
    && List.for_all
         (fun ph ->
           let covered = ref true in
           Ir.Enumerate.iter lcg.prog lcg.env ph
             ~f:(fun ~par:_ ~array ~addr _ ~work:_ ->
               if String.equal array l.array && not (Hashtbl.mem written addr)
               then covered := false);
           !covered)
         (phases_of (fun k -> k > l.first_phase && k <= l.last_phase))

(* The same test by box subset algebra: answers only when certain
   (both the covering and some definite counterexample are provable),
   [None] otherwise. *)
let write_covers_epoch_symbolic (lcg : Lcg.t) (l : Distribution.layout) =
  let exception Subtle in
  try
    let shape_of k =
      match
        Ir.Shape.of_phase lcg.prog lcg.env (List.nth lcg.prog.phases k)
      with
      | Some t -> t
      | None -> raise Subtle
    in
    let sites_of t = Ir.Shape.on_array t l.array in
    let th = shape_of l.first_phase in
    let head = sites_of th in
    if head = [] then Some false
    else begin
      let boxes_of t sites acc =
        List.filter_map
          (fun (s : Ir.Shape.site) ->
            if Ir.Types.equal_access s.Ir.Shape.access acc then Ir.Shape.box t s
            else None)
          sites
      in
      let wboxes = boxes_of th head Ir.Types.Write in
      let covered b =
        match
          List.exists
            (fun w ->
              match Lattice.subset b w with
              | Lattice.Yes -> true
              | Lattice.No | Lattice.Unknown -> false)
            wboxes
        with
        | true -> Lattice.Yes
        | false ->
            (* definitely uncovered only when apart from every write *)
            if
              List.for_all
                (fun w ->
                  match Lattice.disjoint b w with
                  | Lattice.Yes -> true
                  | Lattice.No | Lattice.Unknown -> false)
                wboxes
            then Lattice.No
            else Lattice.Unknown
      in
      let all_covered boxes =
        List.fold_left
          (fun acc b -> Lattice.verdict_and acc (covered b))
          Lattice.Yes boxes
      in
      match all_covered (boxes_of th head Ir.Types.Read) with
      | Lattice.No -> Some false (* head phase reads an unwritten cell *)
      | Lattice.Unknown -> raise Subtle
      | Lattice.Yes ->
          let rec tail k =
            if k > l.last_phase then Some true
            else
              let t = shape_of k in
              let boxes =
                List.filter_map (Ir.Shape.box t) (sites_of t)
              in
              match all_covered boxes with
              | Lattice.Yes -> tail (k + 1)
              | Lattice.No -> Some false
              | Lattice.Unknown -> raise Subtle
          in
          tail (l.first_phase + 1)
    end
  with Subtle | Lattice.Overflow -> None

let write_covers_epoch (lcg : Lcg.t) (l : Distribution.layout) =
  Lattice.closed_or_enumerate ~stage:"comm"
    ~reason:(fun () -> l.array ^ " write-covers")
    ~symbolic:(fun () -> write_covers_epoch_symbolic lcg l)
    ~enum:(fun () -> write_covers_epoch_enum lcg l)

(* The frontier strips of a halo'd layout: each block owner's edge
   cells, addressed to the neighbouring blocks' owners.  Emitted as
   per-block ranges - the strips are contiguous by construction, so no
   per-address walk is needed. *)
let strip_ranges (plan : Distribution.plan) (l : Distribution.layout) size =
  if l.halo <= 0 || l.halo >= size then []
  else begin
    let ranges = ref [] in
    let b = l.block in
    let w = Distribution.halo_window l in
    let nblocks = ((size - l.base) + b - 1) / b in
    for blk = 0 to nblocks - 1 do
      let start = l.base + (blk * b) in
      let owner = Distribution.proc_of plan l ~addr:start in
      let strip lo hi target =
        if target >= 0 && target < plan.h && target <> owner then begin
          let lo = max 0 lo and hi = min (size - 1) hi in
          if lo <= hi then ranges := (owner, target, (lo, hi)) :: !ranges
        end
      in
      if start + b < size then
        strip (start + b - w) (start + b - 1)
          (Distribution.proc_of plan l ~addr:(start + b));
      if blk > 0 || l.base > 0 then
        strip start (start + w - 1)
          (Distribution.proc_of plan l ~addr:(start - 1))
    done;
    !ranges
  end

let strip_messages plan l size = aggregate_ranges (strip_ranges plan l size)

(* Redistribution traffic between two layouts: in closed form, the
   owner maps of both layouts are walked as maximal constant-owner
   segments and their refinement yields per-(src, dst) ranges directly;
   the per-address loop survives as the oracle (and the fallback when
   a segment walk exhausts its budget, e.g. CYCLIC(1) on a huge
   array). *)
let redistribution_messages_enum (plan : Distribution.plan) prev next size =
  let triples = ref [] in
  for a = 0 to size - 1 do
    let po = Distribution.proc_of plan prev ~addr:a in
    let no = Distribution.proc_of plan next ~addr:a in
    if po <> no then triples := (po, no, a) :: !triples
  done;
  aggregate !triples

let redistribution_messages_symbolic (plan : Distribution.plan) prev next size
    =
  let segs l =
    Lattice.Own.segments
      (Distribution.own_of ~h:plan.h l)
      ~lo:0 ~hi:(size - 1) ~budget:Owncount.budget
  in
  match (segs prev, segs next) with
  | Some sp, Some sn ->
      (* refine the two segmentations *)
      let ranges = ref [] in
      let rec walk sp sn =
        match (sp, sn) with
        | [], [] -> ()
        | (lo1, hi1, p1) :: tp, (lo2, hi2, p2) :: tn ->
            let lo = max lo1 lo2 in
            let hi = min hi1 hi2 in
            if lo <= hi && p1 <> p2 then ranges := (p1, p2, (lo, hi)) :: !ranges;
            if hi1 <= hi2 then
              walk tp (if hi1 = hi2 then tn else sn)
            else walk sp tn
        | _, [] | [], _ -> ()
      in
      walk sp sn;
      Some (aggregate_ranges !ranges)
  | _ -> None

let redistribution_messages plan prev next size =
  Lattice.closed_or_enumerate ~stage:"comm"
    ~reason:(fun () -> prev.Distribution.array ^ " redistribution walk")
    ~symbolic:(fun () -> redistribution_messages_symbolic plan prev next size)
    ~enum:(fun () -> redistribution_messages_enum plan prev next size)

let generate ?on_error (lcg : Lcg.t) (plan : Distribution.plan) : schedule =
  let array_size lcg a = array_size ?on_error lcg a in
  let events = ref [] in
  let n_phases = List.length lcg.prog.phases in
  List.iteri
    (fun k _ph ->
      (* Redistributions entering epochs that start at phase k; for a
         repeating program the wrap from the last phase back into the
         first epoch (before_phase = 0) is a boundary too. *)
      List.iter
        (fun (l : Distribution.layout) ->
          if l.first_phase = k && (k > 0 || lcg.prog.repeats) then
            match
              Distribution.layout_for plan ~array:l.array
                ~phase_idx:((k - 1 + n_phases) mod n_phases)
            with
            | Some prev when prev <> l && not (write_covers_epoch lcg l) -> (
                match array_size lcg l.array with
                | None -> () (* size unevaluable: reported, events omitted *)
                | Some size ->
                    let messages = redistribution_messages plan prev l size in
                    if messages <> [] then
                      events :=
                        Redistribute
                          { array = l.array; before_phase = k; messages }
                        :: !events;
                    (* a second round initializes the ghost replicas from
                       the now-current owners (order matters: strips read
                       the owners' post-copy-in data) *)
                    let strips = strip_messages plan l size in
                    if strips <> [] then
                      events :=
                        Redistribute
                          { array = l.array; before_phase = k; messages = strips }
                        :: !events)
            | _ -> ())
        plan.layouts;
      (* Frontier updates after phases writing halo'd arrays. *)
      let ph = List.nth lcg.prog.phases k in
      let written =
        Lattice.closed_or_enumerate ~stage:"comm"
          ~reason:(fun () -> "phase " ^ ph.Ir.Types.phase_name ^ " writes")
          ~symbolic:(fun () -> Distribution.phase_writes_symbolic lcg ph)
          ~enum:(fun () -> Distribution.phase_writes_enum lcg ph)
      in
      List.iter
        (fun array ->
          match Distribution.layout_for plan ~array ~phase_idx:k with
          | Some l when l.halo > 0 && List.length lcg.prog.phases > 1 -> (
              match array_size lcg array with
              | None -> ()
              | Some size ->
                  let messages = strip_messages plan l size in
                  if messages <> [] then
                    events :=
                      Frontier { array; after_phase = k; messages }
                      :: !events)
          | _ -> ())
        written)
    lcg.prog.phases;
  List.rev !events

let event_messages = function
  | Redistribute { messages; _ } | Frontier { messages; _ } -> messages

let total_words s =
  List.fold_left
    (fun acc e ->
      List.fold_left (fun acc m -> acc + m.words) acc (event_messages e))
    0 s

let message_count s =
  List.fold_left (fun acc e -> acc + List.length (event_messages e)) 0 s

let redistributions s =
  List.filter (function Redistribute _ -> true | Frontier _ -> false) s

let frontiers s =
  List.filter (function Frontier _ -> true | Redistribute _ -> false) s

(* The delivery protocol every replay follows: redistribution events
   deliver on entry to their phase, except that wrap-around events
   (before_phase = 0) only fire from the second round on; frontier
   events deliver on exit from their phase, every round.  [step]
   receives the events already gated, so a replay cannot get the
   protocol wrong. *)
let walk ~rounds ~sched ~phases ~step =
  for round = 0 to rounds - 1 do
    List.iteri
      (fun k ph ->
        let incoming =
          List.filter
            (function
              | Redistribute { before_phase; _ } ->
                  before_phase = k && (k > 0 || round > 0)
              | Frontier _ -> false)
            sched
        in
        let outgoing =
          List.filter
            (function
              | Frontier { after_phase; _ } -> after_phase = k
              | Redistribute _ -> false)
            sched
        in
        step ~round ~k ph ~incoming ~outgoing)
      phases
  done

let pp_message ppf m =
  Format.fprintf ppf "put %d -> %d: %d words in %d ranges [%s]" m.src m.dst
    m.words (List.length m.ranges)
    (String.concat "; "
       (List.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo hi) m.ranges))

let pp ppf (s : schedule) =
  List.iter
    (fun e ->
      (match e with
      | Redistribute { array; before_phase; messages } ->
          Format.fprintf ppf "@[<v 2>redistribute %s before phase %d (%d msgs):@,"
            array before_phase (List.length messages);
          List.iter (fun m -> Format.fprintf ppf "%a@," pp_message m) messages
      | Frontier { array; after_phase; messages } ->
          Format.fprintf ppf "@[<v 2>frontier %s after phase %d (%d msgs):@,"
            array after_phase (List.length messages);
          List.iter (fun m -> Format.fprintf ppf "%a@," pp_message m) messages);
      Format.fprintf ppf "@]@,")
    s
