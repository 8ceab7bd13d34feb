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

(* The array's size fact.  A size that does not evaluate means this
   array's messages cannot be generated, which [on_error] surfaces and
   [None] makes explicit so [generate] skips the array's events instead
   of doing layout math on a phantom size-0 array.  An undeclared array
   is an internal invariant violation and keeps crashing ([Not_found]). *)
let size ?on_error (lcg : Lcg.t) array =
  match List.assoc array lcg.sizes with
  | Ok n -> Some n
  | Error why ->
      Option.iter
        (fun report ->
          report
            (Printf.sprintf "array %s: size %s; omitting its messages" array
               (match why with
               | Unbound v -> "has unbound parameter " ^ v
               | Non_integral e -> "is non-integral (" ^ e ^ ")"
               | Overflow -> "overflowed")))
        on_error;
      None

module Pairs = Hashtbl.Make (Int)

(* The messages the (src, dst, [lo..hi]) contributions [emit] makes
   through its [add] callback, on a machine of [h] processors: per
   (src, dst) pair, maximal contiguous ascending ranges, words =
   addresses covered.  A pair's contributions made in ascending
   address order (the redistribution walks) are merged as they arrive
   and need no sort; any other order is normalized. *)
let aggregate_ranges ~h emit : message list =
  let tbl = Pairs.create 16 in
  emit (fun src dst lo hi ->
      let key = (src * h) + dst in
      Pairs.replace tbl key
        (match Pairs.find_opt tbl key with
        | Some ((l, e) :: rs) when lo = e + 1 -> (l, hi) :: rs
        | Some rs -> (lo, hi) :: rs
        | None -> [ (lo, hi) ]));
  let rec descending = function
    | (l1, _) :: ((_, h2) :: _ as rest) -> h2 + 1 < l1 && descending rest
    | _ -> true
  in
  Pairs.fold
    (fun key rs acc ->
      let ranges = if descending rs then List.rev rs else Lattice.Iv.norm rs in
      let words = List.fold_left (fun a (lo, hi) -> a + (hi - lo + 1)) 0 ranges in
      (key, { src = key / h; dst = key mod h; ranges; words }) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

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

(* The same test by box algebra, answering [None] only outside the
   fragment.  A read box is covered when it lies inside the union of
   the head phase's write boxes.  A containing write box, apartness
   from every write box, or a lone write box that does not contain
   [b] answers at once; otherwise [b ⊆ ∪W] exactly when adding [b]
   leaves the union's cardinality unchanged. *)
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
      let wcard = lazy (Lattice.union_card wboxes) in
      let covered b =
        if List.exists (fun w -> Lattice.subset b w = Lattice.Yes) wboxes then
          Lattice.Yes
        else if
          List.for_all (fun w -> Lattice.disjoint b w = Lattice.Yes) wboxes
        then Lattice.No
        else
          match wboxes with
          | [ w ] when Lattice.subset b w = Lattice.No -> Lattice.No
          | _ -> (
              match (Lattice.union_card (b :: wboxes), Lazy.force wcard) with
              | Some u, Some n -> if u = n then Lattice.Yes else Lattice.No
              | _ -> Lattice.Unknown)
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
let strip_messages (plan : Distribution.plan) (l : Distribution.layout) size =
  if l.halo <= 0 || l.halo >= size then []
  else
    aggregate_ranges ~h:plan.h @@ fun add ->
    let b = l.block in
    let w = Distribution.halo_window l in
    let nblocks = ((size - l.base) + b - 1) / b in
    for blk = 0 to nblocks - 1 do
      let start = l.base + (blk * b) in
      let owner = Distribution.proc_of plan l ~addr:start in
      let strip lo hi target =
        if target >= 0 && target < plan.h && target <> owner then begin
          let lo = max 0 lo and hi = min (size - 1) hi in
          if lo <= hi then add owner target lo hi
        end
      in
      if start + b < size then
        strip (start + b - w) (start + b - 1)
          (Distribution.proc_of plan l ~addr:(start + b));
      if blk > 0 || l.base > 0 then
        strip start (start + w - 1)
          (Distribution.proc_of plan l ~addr:(start - 1))
    done

(* Redistribution traffic between two layouts: in closed form, the
   owner maps of both layouts are walked together as segments of
   constant (old owner, new owner), each of which is one range of one
   message.  There are never more segments than addresses, so the
   per-address loop is only the enumerated twin, never a fallback. *)
let redistribution_messages_enum (plan : Distribution.plan) prev next size =
  aggregate_ranges ~h:plan.h @@ fun add ->
  for a = 0 to size - 1 do
    let po = Distribution.proc_of plan prev ~addr:a in
    let no = Distribution.proc_of plan next ~addr:a in
    if po <> no then add po no a a
  done

let redistribution_messages_symbolic (plan : Distribution.plan) prev next size
    =
  let own = Distribution.own_of ~h:plan.h in
  aggregate_ranges ~h:plan.h @@ fun add ->
  Lattice.Own.segments (own prev) (own next) ~lo:0 ~hi:(size - 1)
    (fun lo hi p q -> if p <> q then add p q lo hi)

(* The closed form always answers, so the dispatch only picks the
   twin: the reason is never asked for. *)
let redistribution_messages plan prev next size =
  Lattice.closed_or_enumerate ~stage:"comm"
    ~reason:(fun () -> prev.Distribution.array ^ " redistribution walk")
    ~symbolic:(fun () ->
      Some (redistribution_messages_symbolic plan prev next size))
    ~enum:(fun () -> redistribution_messages_enum plan prev next size)

let generate ?on_error (lcg : Lcg.t) (plan : Distribution.plan) : schedule =
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
                match size ?on_error lcg l.array with
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
              match size ?on_error lcg array with
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
