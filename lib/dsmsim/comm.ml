open Symbolic
open Locality
open Ilp

type message = {
  src : int;
  dst : int;
  ranges : Lattice.Prog.t list;
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
let size_failure : Ir.Linearize.size_failure -> string = function
  | Unbound v -> "has unbound parameter " ^ v
  | Non_integral e -> "is non-integral (" ^ e ^ ")"
  | Overflow -> "overflowed"

let size ?on_error (lcg : Lcg.t) array =
  match List.assoc array lcg.sizes with
  | Ok n -> Some n
  | Error why ->
      Option.iter
        (fun report ->
          report
            (Printf.sprintf "array %s: size %s; omitting its messages" array (size_failure why)))
        on_error;
      None

module Pairs = Hashtbl.Make (Int)

(* The messages the (src, dst, addresses) contributions [emit] makes
   through its [add] callback, on a machine of [h] processors: per
   (src, dst) pair, the contributions in arrival order, words =
   addresses covered.  A contribution that continues the pair's last
   one (the next address after a single block, or the next column of a
   progression of the same stride and count) extends it, so a pair's
   ascending single blocks arrive merged; single blocks that arrive in
   any other order (frontier strips, which may overlap) are
   normalized. *)
let aggregate_ranges ~h emit : message list =
  let tbl = Pairs.create 16 in
  emit (fun src dst (r : Lattice.Prog.t) ->
      let key = (src * h) + dst in
      Pairs.replace tbl key
        (match Pairs.find_opt tbl key with
        | Some ((l : Lattice.Prog.t) :: rs)
          when l.count = r.count && r.first = l.first + l.width
               && (r.count = 1 || l.stride = r.stride) ->
            Lattice.Prog.make ~first:l.first ~width:(l.width + r.width)
              ~stride:(if r.count = 1 then 0 else r.stride) ~count:r.count
            :: rs
        | Some rs -> r :: rs
        | None -> [ r ]));
  let rec descending = function
    | (l1, _) :: ((_, h2) :: _ as rest) -> h2 + 1 < l1 && descending rest
    | _ -> true
  in
  Pairs.fold
    (fun key rs acc ->
      let ranges =
        if List.for_all (fun (r : Lattice.Prog.t) -> r.count = 1) rs then
          let ivs = List.map (fun (r : Lattice.Prog.t) -> (r.first, Lattice.Prog.last r)) rs in
          List.map
            (fun (lo, hi) -> Lattice.Prog.block ~lo ~hi)
            (if descending ivs then List.rev ivs else Lattice.Iv.norm ivs)
        else List.rev rs
      in
      let words = List.fold_left (fun a r -> a + Lattice.Prog.card r) 0 ranges in
      (key, { src = key / h; dst = key mod h; ranges; words }) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let intervals m =
  let ivs = ref [] in
  List.iter
    (fun r -> Lattice.Prog.iter r (fun lo hi -> ivs := (lo, hi) :: !ivs))
    m.ranges;
  Lattice.Iv.norm !ivs

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
          if lo <= hi then add owner target (Lattice.Prog.block ~lo ~hi)
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
   message.  Above the point where both maps repeat, one joint period
   (the lcm of theirs) is walked, and each of its segments is sent as
   a progression over the whole periods that follow; the rest is
   walked segment by segment.  There are never more segments than
   addresses, so the per-address loop is only the enumerated twin,
   never a fallback. *)
let redistribution_messages_enum (plan : Distribution.plan) prev next size =
  aggregate_ranges ~h:plan.h @@ fun add ->
  for a = 0 to size - 1 do
    let po = Distribution.proc_of plan prev ~addr:a in
    let no = Distribution.proc_of plan next ~addr:a in
    if po <> no then add po no (Lattice.Prog.block ~lo:a ~hi:a)
  done

let redistribution_messages_symbolic (plan : Distribution.plan) prev next size
    =
  let a = Distribution.own_of ~h:plan.h prev
  and b = Distribution.own_of ~h:plan.h next in
  aggregate_ranges ~h:plan.h @@ fun add ->
  let walk lo hi =
    Lattice.Own.segments a b ~lo ~hi (fun lo hi p q ->
        if p <> q then add p q (Lattice.Prog.block ~lo ~hi))
  in
  let (fa, pa), (fb, pb) = (Lattice.Own.repeats a, Lattice.Own.repeats b) in
  let from = max 0 (max fa fb) in
  match Lattice.Safe.mul (pa / Lattice.gcd pa pb) pb with
  | l when size - from >= 2 * l ->
      let cells = (size - from) / l in
      walk 0 (from - 1);
      Lattice.Own.segments a b ~lo:from ~hi:(from + l - 1) (fun lo hi p q ->
          if p <> q then
            add p q
              (Lattice.Prog.make ~first:lo ~width:(hi - lo + 1) ~stride:l
                 ~count:cells));
      walk (from + (cells * l)) (size - 1)
  | _ | (exception Lattice.Overflow) -> walk 0 (size - 1)

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
  let ivs = intervals m in
  Format.fprintf ppf "put %d -> %d: %d words in %d ranges [%s]" m.src m.dst
    m.words (List.length ivs)
    (String.concat "; "
       (List.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo hi) ivs))

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
