(* Differential tests for the closed-form set algebra (Lattice) and
   the descriptor-level facade (Setalg).

   Every closed-form answer - cardinality, bounds, membership, subset
   and disjointness verdicts, union volume, per-processor ownership
   intersection, progression-window hit counts - is cross-checked
   against brute-force enumeration on small extents, for all three
   distribution kinds (BLOCK, CYCLIC, BLOCK-CYCLIC).  Three-valued
   verdicts are checked for soundness: a Yes/No must agree with the
   oracle, an Unknown is merely counted.  Overflow guards get targeted
   regression cases at the 2^62 boundary. *)

open Symbolic

let count = 300

module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Brute-force oracle: expand a raw (count, stride) generator list. *)

let expand ~base dims =
  let rec go acc = function
    | [] -> acc
    | (c, s) :: rest ->
        let acc' =
          List.concat_map
            (fun x -> List.init c (fun k -> x + (k * s)))
            acc
        in
        go acc' rest
  in
  IntSet.of_list (go [ base ] dims)

let gen_dims =
  QCheck.Gen.(
    let* n = int_range 0 3 in
    list_repeat n
      (pair (int_range 1 6) (oneofl [ -7; -3; -2; -1; 0; 1; 2; 3; 4; 5; 8; 12 ])))

let gen_box =
  QCheck.Gen.(
    let* base = int_range (-30) 30 in
    let* dims = gen_dims in
    return (base, dims))

let arb_box = QCheck.make ~print:(fun (b, ds) ->
    Printf.sprintf "base=%d dims=[%s]" b
      (String.concat ";" (List.map (fun (c, s) -> Printf.sprintf "(%d,%d)" c s) ds)))
    gen_box

let arb_box2 = QCheck.pair arb_box arb_box

let box_of (base, dims) = Lattice.make ~base dims

let prop ?(count = count) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Box algebra vs the oracle. *)

let card_exact =
  prop "card/bounds exact vs enumeration" arb_box (fun (base, dims) ->
      let set = expand ~base dims in
      match box_of (base, dims) with
      | None -> IntSet.is_empty set || QCheck.Test.fail_report "empty for non-empty set"
      | Some b ->
          let ok_card =
            match Lattice.card b with
            | Some n -> n = IntSet.cardinal set
            | None -> true
          in
          let ok_bounds =
            Lattice.lo b = IntSet.min_elt set && Lattice.hi b = IntSet.max_elt set
          in
          let ok_interval =
            match Lattice.interval b with
            | Some (l, h) ->
                l = IntSet.min_elt set && h = IntSet.max_elt set
                && IntSet.cardinal set = h - l + 1
            | None -> IntSet.cardinal set <> IntSet.max_elt set - IntSet.min_elt set + 1
          in
          if not ok_card then QCheck.Test.fail_report "cardinality mismatch";
          if not ok_bounds then QCheck.Test.fail_report "bounds mismatch";
          if not ok_interval then QCheck.Test.fail_report "intervality mismatch";
          true)

let mem_sound =
  prop "mem sound vs enumeration" arb_box (fun (base, dims) ->
      let set = expand ~base dims in
      match box_of (base, dims) with
      | None -> true
      | Some b ->
          let lo = IntSet.min_elt set - 3 and hi = IntSet.max_elt set + 3 in
          let ok = ref true in
          for x = lo to hi do
            match Lattice.mem b x with
            | Lattice.Yes -> if not (IntSet.mem x set) then ok := false
            | Lattice.No -> if IntSet.mem x set then ok := false
            | Lattice.Unknown -> ()
          done;
          !ok)

let subset_sound =
  prop "subset sound vs enumeration" arb_box2 (fun (ba, bb) ->
      match (box_of ba, box_of bb) with
      | Some a, Some b ->
          let sa = expand ~base:(fst ba) (snd ba)
          and sb = expand ~base:(fst bb) (snd bb) in
          let truth = IntSet.subset sa sb in
          (match Lattice.subset a b with
          | Lattice.Yes -> truth
          | Lattice.No -> not truth
          | Lattice.Unknown -> true)
      | _ -> true)

let disjoint_sound =
  prop "disjoint sound vs enumeration" arb_box2 (fun (ba, bb) ->
      match (box_of ba, box_of bb) with
      | Some a, Some b ->
          let sa = expand ~base:(fst ba) (snd ba)
          and sb = expand ~base:(fst bb) (snd bb) in
          let truth = IntSet.is_empty (IntSet.inter sa sb) in
          (match Lattice.disjoint a b with
          | Lattice.Yes -> truth
          | Lattice.No -> not truth
          | Lattice.Unknown -> true)
      | _ -> true)

let union_card_exact =
  prop "union_card exact vs enumeration"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 4) arb_box)
    (fun raws ->
      let boxes = List.filter_map box_of raws in
      let sets =
        List.filter_map
          (fun (base, dims) ->
            let s = expand ~base dims in
            if IntSet.is_empty s then None else Some s)
          raws
      in
      let union = List.fold_left IntSet.union IntSet.empty sets in
      match Lattice.union_card boxes with
      | Some n -> n = IntSet.cardinal union
      | None -> true)

(* ------------------------------------------------------------------ *)
(* Interval lists. *)

let gen_ivs =
  QCheck.Gen.(
    let* n = int_range 0 5 in
    list_repeat n (pair (int_range (-20) 20) (int_range 0 6))
    >|= List.map (fun (l, w) -> (l, l + w)))

let arb_ivs2 = QCheck.make (QCheck.Gen.pair gen_ivs gen_ivs)

let set_of_ivs ivs =
  List.fold_left
    (fun acc (l, h) ->
      let rec go acc x = if x > h then acc else go (IntSet.add x acc) (x + 1) in
      go acc l)
    IntSet.empty ivs

let iv_ops =
  prop "interval-list inter/total vs sets" arb_ivs2 (fun (a, b) ->
      let sa = set_of_ivs a and sb = set_of_ivs b in
      let na = Lattice.Iv.norm a and nb = Lattice.Iv.norm b in
      IntSet.equal (set_of_ivs (Lattice.Iv.inter na nb)) (IntSet.inter sa sb)
      && IntSet.equal (set_of_ivs na) sa
      && Lattice.Iv.total na = IntSet.cardinal sa)

(* ------------------------------------------------------------------ *)
(* Ownership: the segment walk must partition the range into
   constant-owner runs, for all three distribution kinds. *)

let gen_own =
  QCheck.Gen.(
    let* h = int_range 1 5 in
    let* base = int_range (-4) 8 in
    let* block = int_range 1 7 in
    let* kind = int_range 0 3 in
    let* period = int_range 1 40 in
    let* mirror = int_range 1 40 in
    let period, mirror =
      match kind with
      | 0 -> (None, None) (* BLOCK (wide block) / BLOCK-CYCLIC *)
      | 1 -> (Some period, None) (* periodic BLOCK-CYCLIC *)
      | 2 -> (Some period, Some (min mirror period)) (* mirrored fold *)
      | _ -> (None, Some mirror)
    in
    return Lattice.Own.{ h; base; block; period; mirror })

let arb_own = QCheck.make gen_own

(* Checked on two maps and on one map walked against itself. *)
let own_segments =
  prop "Own.segments partitions into constant runs"
    (QCheck.pair arb_own arb_own) (fun (a, b) ->
      let partitions a b =
        let x = ref (-8) in
        Lattice.Own.segments a b ~lo:(-8) ~hi:55 (fun l h p q ->
            if l <> !x || h < l then QCheck.Test.fail_report "not a partition";
            for i = l to h do
              if Lattice.Own.owner a i <> p || Lattice.Own.owner b i <> q then
                QCheck.Test.fail_report "owner not constant on run"
            done;
            x := h + 1);
        !x = 56
      in
      partitions a b && partitions a a)

(* Each owner's progressions are well formed, lie in the range and
   hold exactly the addresses [Own.owner] gives it. *)
let owner_sets o ~lo ~hi =
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  for p = 0 to o.Lattice.Own.h - 1 do
    let set = Lattice.Own.set o ~p ~lo ~hi in
    let prev = ref min_int in
    List.iter
      (fun (r : Lattice.Prog.t) ->
        if r.first < !prev then ok := false;
        prev := r.first;
        if r.width < 1 || r.count < 1 || (r.count > 1 && r.stride <= r.width)
        then ok := false;
        Lattice.Prog.iter r (fun l h ->
            for a = l to h do
              if a < lo || a > hi || Hashtbl.mem seen a
                 || Lattice.Own.owner o a <> p
              then ok := false;
              Hashtbl.replace seen a ()
            done))
      set
  done;
  !ok && Hashtbl.length seen = hi - lo + 1

let own_sets =
  prop "Own.set packs each owner's addresses" arb_own (fun o ->
      owner_sets o ~lo:(-8) ~hi:55)

(* Ranges the old interval budget (8,192 per set) could not hold:
   block 1 over tens of thousands of addresses, h in {2, 3, 16}, plain,
   periodic and mirrored; every address checked against [Own.owner]. *)
let gen_wide_own =
  QCheck.Gen.(
    let* h = oneofl [ 2; 3; 16 ] in
    let* block = frequency [ (3, return 1); (1, int_range 2 5) ] in
    let* base = int_range (-50) 50 in
    let* kind = int_range 0 3 in
    let* period = int_range 1 3000 in
    let* mirror = int_range 1 3000 in
    let period, mirror =
      match kind with
      | 0 -> (None, None)
      | 1 -> (Some period, None)
      | 2 -> (Some period, Some (min mirror period))
      | _ -> (None, Some mirror)
    in
    let* lo = int_range (-100) 100 in
    let* width = int_range 17_000 40_000 in
    return (Lattice.Own.{ h; base; block; period; mirror }, lo, lo + width))

let own_sets_wide =
  prop ~count:40 "Own.set progressions on wide block-1 ranges"
    (QCheck.make gen_wide_own) (fun (o, lo, hi) -> owner_sets o ~lo ~hi)

(* ------------------------------------------------------------------ *)
(* Progression-window hits. *)

(* Packed sets of up to 40 intervals, ascending, some adjacent; the
   hull start [s] is drawn before, inside or after the set and the
   progression placed so that its hull begins exactly there, whatever
   the sign of [d]. *)
let gen_window =
  QCheck.Gen.(
    let* start = int_range (-40) 40 in
    let* k = int_range 0 40 in
    let* steps = list_repeat k (pair (int_range 0 4) (int_range 0 4)) in
    let set =
      let next (x, acc) (gap, w) =
        (x + gap + w + 1, (x + gap, x + gap + w) :: acc)
      in
      List.rev (snd (List.fold_left next (start, []) steps))
    in
    let set_lo = match set with (l, _) :: _ -> l | [] -> start in
    let set_hi = List.fold_left (fun _ (_, h) -> h) set_lo set in
    let* where = int_range 0 2 in
    let* s =
      match where with
      | 0 -> int_range (set_lo - 30) (set_lo - 1)
      | 1 -> int_range set_lo (max set_lo set_hi)
      | _ -> int_range (set_hi + 1) (set_hi + 30)
    in
    let* d = int_range (-9) 9 in
    let* n = int_range 0 12 in
    let* len = int_range 0 8 in
    let a = if d < 0 && n > 0 then s - ((n - 1) * d) else s in
    return (a, d, n, len, set))

let window_hits_exact =
  prop "window_hits vs brute force"
    (QCheck.make
       ~print:(fun (a, d, n, len, set) ->
         Printf.sprintf "a=%d d=%d n=%d len=%d set=[%s]" a d n len
           (String.concat ";"
              (List.map (fun (l, h) -> Printf.sprintf "(%d,%d)" l h) set)))
       gen_window)
    (fun (a, d, n, len, set) ->
      let brute = ref 0 in
      for i = 0 to n - 1 do
        for x = a + (i * d) to a + (i * d) + len - 1 do
          if Lattice.Iv.mem set x then incr brute
        done
      done;
      Lattice.hits (Lattice.lattice ~dims:[ (n, d) ] ~len) ~a
        (List.map (fun (lo, hi) -> Lattice.Prog.block ~lo ~hi) set)
      = !brute)

(* Sets of progressions - one owner's set under a random layout, or
   two interleaved progressions of one stride beside one of another -
   against lattices of up to three dimensions (zero and negative
   strides included): the hits on the set and on its ghost zone
   ([hits_and_ghost], apart blocks and inclusion-exclusion alike)
   equal a replay of every window address. *)
let gen_prog_case =
  QCheck.Gen.(
    let* set =
      frequency
        [
          ( 1,
            let* o = gen_own in
            let* p = int_range 0 (o.Lattice.Own.h - 1) in
            let* lo = int_range (-20) 20 in
            let* hi = int_range lo (lo + 150) in
            return (Lattice.Own.set o ~p ~lo ~hi) );
          ( 1,
            let* f = int_range (-30) 30 in
            let* t = int_range 3 12 in
            let* w1 = int_range 1 (t - 2) in
            let* g = int_range 0 (t - w1 - 1) in
            let* w2 = int_range 1 (max 1 (t - w1 - g - 1)) in
            let* k1 = int_range 1 8 and* k2 = int_range 1 8 in
            let* u = int_range 1 9 and* w3 = int_range 1 4 and* k3 = int_range 1 6 in
            let mk first width stride count =
              Lattice.Prog.make ~first ~width ~stride ~count
            in
            let third = f + (max k1 k2 * t) + 5 in
            return
              [
                mk f w1 t k1;
                mk (f + w1 + g) w2 t k2;
                mk third w3 (w3 + u) k3;
              ] );
        ]
    in
    let* dims =
      list_size (int_range 1 3)
        (pair (int_range 1 6) (oneofl [ -9; -4; -1; 0; 1; 2; 3; 5; 7; 16 ]))
    in
    let* a = int_range (-40) 60 in
    let* len = int_range 1 6 in
    let* w = int_range 1 4 in
    return (set, dims, a, len, w))

let print_prog_case (set, dims, a, len, w) =
  Printf.sprintf "set=[%s] dims=[%s] a=%d len=%d w=%d"
    (String.concat ";"
       (List.map
          (fun (r : Lattice.Prog.t) ->
            Printf.sprintf "{%d,%d,%d,%d}" r.first r.width r.stride r.count)
          set))
    (String.concat ";" (List.map (fun (c, s) -> Printf.sprintf "(%d,%d)" c s) dims))
    a len w

let prog_hits_exact =
  prop ~count:3000 "window hits and ghost zones on progression sets vs brute force"
    (QCheck.make ~print:print_prog_case gen_prog_case)
    (fun (set, dims, a, len, w) ->
      let mem x = List.exists (fun r -> Lattice.Prog.mem r x) set in
      let points =
        List.fold_left
          (fun acc (c, s) ->
            List.concat_map (fun x -> List.init c (fun k -> x + (k * s))) acc)
          [ a ] dims
      in
      let owned = ref 0 and ghost = ref 0 in
      List.iter
        (fun x ->
          for y = x to x + len - 1 do
            if mem y then incr owned
            else if mem (y - w) || mem (y + w) then incr ghost
          done)
        points;
      Lattice.hits_and_ghost (Lattice.lattice ~dims ~len) ~a ~w set
      = (!owned, !ghost))

(* ------------------------------------------------------------------ *)
(* Per-processor counting vs brute force: one random site under a
   random CYCLIC(chunk) schedule and layout, every event replayed
   through Own.owner.  Half the blocks are the balanced |d|*chunk,
   where a site's runs share rotation classes; partial last chunks,
   runs below the layout's base, and runs straddling the pieces of
   short periods and mirrors take the other paths. *)

type tally_case = {
  h : int;
  chunk : int;
  par_n : int;
  site : Ir.Shape.site;
  own : Lattice.Own.t option;
  window : int;
}

let gen_tally =
  QCheck.Gen.(
    let* h = oneofl [ 1; 2; 3; 7; 64; 1024 ] in
    let* chunk = int_range 1 6 in
    let* par_n = int_range 0 30 in
    let* d = int_range (-6) 6 in
    let* par =
      frequency
        [
          (6, return (Ir.Shape.Strided d));
          (1, return Ir.Shape.Outside);
          (1, map (fun i -> Ir.Shape.Fixed i) (int_range 0 40));
        ]
    in
    let* seq =
      list_size (int_range 0 2)
        (pair (int_range 1 4) (oneofl [ -3; -1; 0; 1; 2; 5 ]))
    in
    let* base = int_range (-20) 40 in
    let* work = int_range 0 3 in
    let* access = oneofl [ Ir.Types.Read; Ir.Types.Write ] in
    let* balanced = bool in
    let* block =
      if balanced && d <> 0 then return (abs d * chunk) else int_range 1 7
    in
    let* obase =
      frequency
        [ (1, int_range (-30) 60); (2, map (( + ) base) (int_range (-3) 3)) ]
    in
    let* kind = int_range 0 4 in
    let* period = int_range 1 40 in
    let* mirror = int_range 1 40 in
    let* window = int_range 0 3 in
    let own =
      let plain =
        Lattice.Own.{ h; base = obase; block; period = None; mirror = None }
      in
      match kind with
      | 0 -> None
      | 1 -> Some plain
      | 2 -> Some { plain with period = Some period }
      | 3 ->
          Some
            { plain with period = Some period; mirror = Some (min mirror period) }
      | _ -> Some { plain with mirror = Some mirror }
    in
    let site =
      { Ir.Shape.array = "A"; access; work; base; par; seq; loops = List.mapi (fun i _ -> i + 1) seq; run = [] }
    in
    return { h; chunk; par_n; site; own; window })

let print_tally_case c =
  Printf.sprintf "h=%d chunk=%d par_n=%d base=%d par=%s seq=[%s] %s window=%d %s"
    c.h c.chunk c.par_n c.site.base
    (match c.site.par with
    | Ir.Shape.Strided d -> Printf.sprintf "strided %d" d
    | Outside -> "outside"
    | Fixed i -> Printf.sprintf "fixed %d" i)
    (String.concat ";"
       (List.map (fun (n, s) -> Printf.sprintf "(%d,%d)" n s) c.site.seq))
    (match c.site.access with Read -> "read" | Write -> "write")
    c.window
    (match c.own with
    | None -> "unplaced"
    | Some o ->
        Printf.sprintf "own base=%d block=%d period=%s mirror=%s" o.base o.block
          (Option.fold ~none:"-" ~some:string_of_int o.period)
          (Option.fold ~none:"-" ~some:string_of_int o.mirror))

(* [c]'s per-processor and one-slot counts equal a replay of every
   event through [Own.owner]; [windows] receives the window sums the
   per-processor count spent. *)
let tally_exact ?(windows = ref 0) c =
  let s = c.site and h = c.h in
  let ghost = c.window > 0 && Ir.Types.equal_access s.access Read in
  let events =
    let offs =
      List.fold_left
        (fun acc (n, st) ->
          List.concat_map (fun o -> List.init n (fun k -> o + (k * st))) acc)
        [ 0 ] s.seq
    in
    let proc i = Ilp.Distribution.proc_of_iteration ~chunk:c.chunk ~h i in
    let iterations =
      match s.par with
      | Ir.Shape.Strided d ->
          List.init c.par_n (fun i -> (proc i, s.base + (d * i)))
      | Outside -> [ (0, s.base) ]
      | Fixed i -> [ (proc i, s.base) ]
    in
    List.concat_map
      (fun (p, a) -> List.map (fun off -> (p, a + off)) offs)
      iterations
  in
  let brute = Array.init 4 (fun _ -> Array.make h 0) in
  List.iter
    (fun (p, a) ->
      let bump k = brute.(k).(p) <- brute.(k).(p) + 1 in
      bump 0;
      brute.(3).(p) <- brute.(3).(p) + s.work;
      match c.own with
      | None -> bump 1
      | Some o ->
          let owner = Lattice.Own.owner o in
          if owner a = p then bump 1
          else if
            ghost && (owner (a - c.window) = p || owner (a + c.window) = p)
          then bump 2)
    events;
  let spent () = List.assoc "tally.windows" (Metrics.snapshot ()).counters in
  let count slots =
    let z () = Array.make slots 0 in
    let k =
      Ilp.Owncount.{ events = z (); owned = z (); ghost = z (); work = z () }
    in
    let before = spent () in
    if
      not
        (Ilp.Owncount.per_proc ~chunk:c.chunk ~h
           { Ir.Shape.par_n = c.par_n; sites = [ s ] }
           s ~own:c.own
           ~window:(if ghost then c.window else 0)
           k)
    then QCheck.Test.fail_report "per_proc gave up on a tiny site";
    windows := spent () - before;
    [| k.events; k.owned; k.ghost; k.work |]
  in
  let total = Array.fold_left ( + ) 0 in
  count h = brute && Array.map (fun a -> [| total a |]) brute = count 1

(* Cases are cheap, and the rarer paths (a run touching the halo
   window just above base on the last processor) need many draws. *)
let per_proc_exact =
  prop ~count:10000 "Owncount.per_proc vs brute force"
    (QCheck.make ~print:print_tally_case gen_tally)
    (fun c -> tally_exact c)

(* Long sites on periodic and mirrored layouts whose pieces hold many
   chunk runs: the cases [gen_tally] seldom draws.  The site mostly
   starts above the layout's base (below it when it runs downwards from
   there), so most runs fit a piece. *)
let gen_pieces =
  QCheck.Gen.(
    let* h = oneofl [ 2; 3; 7; 64 ] in
    let* chunk = int_range 1 3 in
    let* par_n = int_range 1 400 in
    let* d = map2 ( * ) (oneofl [ -1; 1 ]) (int_range 1 3) in
    let* block = int_range 1 4 in
    let* period = int_range 32 256 in
    let* mirror = int_range 32 256 in
    let* kind = int_range 0 3 in
    let* window = int_range 0 3 in
    let* contig = pair (int_range 1 4) (oneofl [ -1; 1 ]) in
    let* extra = oneofl [ []; [ (2, 5) ]; [ (3, -7) ] ] in
    let* obase = int_range (-20) 20 in
    let* above = int_range (-8) (2 * period) in
    let* work = int_range 0 2 in
    let* access = oneofl [ Ir.Types.Read; Ir.Types.Write ] in
    let base = obase + above + if d < 0 then par_n * -d else 0 in
    let own =
      let o =
        Lattice.Own.{ h; base = obase; block; period = None; mirror = None }
      in
      match kind with
      | 0 -> { o with period = Some period }
      | 1 -> { o with mirror = Some mirror }
      | 2 -> { o with period = Some period; mirror = Some (min mirror period) }
      | _ -> { o with period = Some period; mirror = Some period }
    in
    let site =
      {
        Ir.Shape.array = "A";
        access;
        work;
        base;
        par = Ir.Shape.Strided d;
        seq = contig :: extra;
        loops = List.mapi (fun i _ -> i + 1) (contig :: extra);
        run = [];
      }
    in
    return { h; chunk; par_n; site; own = Some own; window })

(* The same check where pieces fill, and a count of the cases that
   spend fewer window sums than they have chunk runs: most must, or the
   property could pass with every run counted alone. *)
let per_proc_pieces =
  let fewer = ref 0 and cases = ref 0 in
  let name, speed, run =
    prop ~count:2000 "Owncount.per_proc pieces vs brute force"
      (QCheck.make ~print:print_tally_case gen_pieces)
      (fun c ->
        let windows = ref 0 in
        tally_exact ~windows c
        && begin
             incr cases;
             let runs = (c.par_n + c.chunk - 1) / c.chunk in
             if !windows < runs then incr fewer;
             true
           end)
  in
  ( name,
    speed,
    fun () ->
      run ();
      if 2 * !fewer <= !cases then
        Alcotest.failf "%d of %d cases spent fewer window sums than runs"
          !fewer !cases )

(* ------------------------------------------------------------------ *)
(* Shape extraction vs the enumeration oracle: the symbolic event
   multiset must equal Enumerate.iter's event-for-event on every
   registry kernel at its seed size (tfft2's loop-dependent strides and
   trisolve's triangular bounds exercise the partial evaluator). *)

let event_multiset_enum prog env ph =
  let tbl = Hashtbl.create 1024 in
  let bump k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  Ir.Enumerate.iter prog env ph ~f:(fun ~par ~array ~addr access ~work ->
      bump (par, array, addr, access, work));
  tbl

let event_multiset_shape (t : Ir.Shape.t) =
  let tbl = Hashtbl.create 1024 in
  let bump n k =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let rec tuples base = function
    | [] -> [ base ]
    | (c, s) :: rest ->
        List.concat (List.init c (fun k -> tuples (base + (k * s)) rest))
  in
  List.iter
    (fun (s : Ir.Shape.site) ->
      let addrs = tuples s.base s.seq in
      match s.par with
      | Ir.Shape.Strided st ->
          for i = 0 to t.Ir.Shape.par_n - 1 do
            List.iter
              (fun a -> bump 1 (Some i, s.array, a + (i * st), s.access, s.work))
              addrs
          done
      | Ir.Shape.Fixed i ->
          List.iter (fun a -> bump 1 (Some i, s.array, a, s.access, s.work)) addrs
      | Ir.Shape.Outside ->
          List.iter (fun a -> bump 1 (None, s.array, a, s.access, s.work)) addrs)
    t.Ir.Shape.sites;
  tbl

(* [Shape.of_phase] answers, with [Enumerate.iter]'s event multiset. *)
let check_shape what prog env (ph : Ir.Types.phase) =
  match Ir.Shape.of_phase prog env ph with
  | None -> Alcotest.failf "%s/%s: outside fragment" what ph.phase_name
  | Some t ->
      let want = event_multiset_enum prog env ph in
      let got = event_multiset_shape t in
      let agree =
        Hashtbl.length want = Hashtbl.length got
        && Hashtbl.fold (fun k n acc -> acc && Hashtbl.find_opt got k = Some n) want true
      in
      if not agree then
        Alcotest.failf "%s/%s: symbolic events <> enumerated" what ph.phase_name

let shape_matches_oracle () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let env = e.env_of_size e.default_size in
      List.iter (check_shape e.name e.program env) e.program.phases)
    Codes.Registry.all

(* Every phase of default programs #0-199 of campaign 42 and deep
   programs #0-11 of campaign 2026, at the midpoint and at lint's
   sampled environments, and a parallel loop whose trip count depends
   on the enclosing sequential loop. *)
let shape_matches_oracle_fuzz () =
  let corpus profile seed n =
    List.iter
      (fun index ->
        let prog = Fuzz.Gen.program profile ~seed ~index in
        let what = Printf.sprintf "seed %d #%d" seed index in
        List.iter
          (fun env -> List.iter (check_shape what prog env) prog.phases)
          (Fuzz.Gen.midpoint_env prog :: Core.Lint.default_envs prog))
      (List.init n Fun.id)
  in
  corpus Fuzz.Gen.default 42 200;
  corpus Fuzz.Gen.deep 2026 12;
  let open Ir.Build in
  let n = var "N" in
  let prog =
    program ~name:"tri"
      ~params:(Assume.of_list [ ("N", Assume.Int_range (4, 12)) ])
      ~arrays:[ array "A" [ n; n ] ]
      [
        phase "P"
          (do_ "i" ~lo:(int 0) ~hi:(n - int 1)
             [
              doall "j" ~lo:(int 0) ~hi:(var "i")
                 [ assign [ read "A" [ var "j"; var "i" ]; write "A" [ var "i"; var "j" ] ] ];
             ]);
      ]
  in
  check_shape "do i / doall j = 0, i" prog (Env.of_list [ ("N", 7) ]) (List.hd prog.phases)

let shape_work_matches () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let env = e.env_of_size e.default_size in
      List.iter
        (fun (ph : Ir.Types.phase) ->
          let enum = ref 0 in
          Ir.Enumerate.iter e.program env ph
            ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work -> enum := !enum + work);
          match Ir.Shape.of_phase e.program env ph with
          | None -> Alcotest.failf "%s/%s: outside fragment" e.name ph.phase_name
          | Some t ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s work" e.name ph.phase_name)
                !enum (Ir.Shape.total_work t))
        e.program.phases)
    Codes.Registry.all

(* The per-processor tally: on every registry kernel's own plan, the
   closed form answers (no fallback) and equals the enumeration field
   for field - per phase and array, under the plan's placement, the
   same layout without its halo, and no placement at all - and its
   unsplit form holds the enumeration's totals.  The points cover the
   nine kernels at their default sizes up to H=1024, adi at sizes 7
   and 8 on 64 processors, where the ownership walk used to run out of
   segments, tfft2 at sizes 6 and 7 on 64 processors, where F8's
   mirrored layout has thousands of chunk runs for the piece walk, and
   the block-1 layouts over whole-array hulls whose interval sets used
   to exceed their budget: adi at sizes 7 and 8 on 2 and 4 processors,
   tfft2 at size 8 on 2 and tomcatv at size 10 on 64. *)
let tally_matches_oracle () =
  let points =
    List.concat_map
      (fun (e : Codes.Registry.entry) ->
        List.map (fun h -> (e, e.default_size, h)) [ 4; 16; 64; 1024 ])
      Codes.Registry.all
    @ List.map (fun size -> (Codes.Registry.find "adi", size, 64)) [ 7; 8 ]
    @ List.map (fun size -> (Codes.Registry.find "tfft2", size, 64)) [ 6; 7 ]
    @ List.concat_map
        (fun size -> List.map (fun h -> (Codes.Registry.find "adi", size, h)) [ 2; 4 ])
        [ 7; 8 ]
    @ [ (Codes.Registry.find "tfft2", 8, 2); (Codes.Registry.find "tomcatv", 10, 64) ]
  in
  List.iter
    (fun ((e : Codes.Registry.entry), size, h) ->
      let env = e.env_of_size size in
      let t = Core.Pipeline.run e.program ~env ~h in
      let plan = t.plan in
      List.iteri
        (fun k (ph : Ir.Types.phase) ->
          List.iter
            (fun (d : Ir.Types.array_decl) ->
              let own =
                if List.mem (k, d.name) plan.privatized then None
                else Ilp.Distribution.layout_for plan ~array:d.name ~phase_idx:k
              in
              let stripped =
                Option.map
                  (fun (l : Ilp.Distribution.layout) -> { l with halo = 0 })
                  own
              in
              List.iter
                (fun (what, placement) ->
                  let placements = [ (d.name, placement) ] in
                  let chunk = plan.chunk.(k) in
                  let label =
                    Printf.sprintf "%s@%d H=%d %s/%s %s" e.name size h
                      ph.phase_name d.name what
                  in
                  let symbolic ~split =
                    match
                      Ilp.Distribution.tally_symbolic ~split t.lcg ph ~chunk ~h
                        placements
                    with
                    | None -> Alcotest.failf "%s: closed form fell back" label
                    | Some sym -> sym
                  in
                  let enum =
                    Ilp.Distribution.tally_enum t.lcg ph ~chunk ~h placements
                  in
                  if symbolic ~split:true <> enum then
                    Alcotest.failf "%s: tally <> enumeration" label;
                  let totals (c : Ilp.Owncount.counts) =
                    let sum a = [| Array.fold_left ( + ) 0 a |] in
                    Ilp.Owncount.
                      {
                        events = sum c.events;
                        owned = sum c.owned;
                        ghost = sum c.ghost;
                        work = sum c.work;
                      }
                  in
                  if
                    symbolic ~split:false
                    <> Array.map
                         (fun (x : Ilp.Distribution.tally) ->
                           Ilp.Distribution.
                             { reads = totals x.reads; writes = totals x.writes })
                         enum
                  then
                    Alcotest.failf "%s: unsplit tally <> enumeration totals"
                      label)
                [ ("plan", own); ("no halo", stripped); ("unplaced", None) ])
            e.program.arrays)
        e.program.phases)
    points

(* ------------------------------------------------------------------ *)
(* Overflow boundaries (satellite): checked ops raise, saturating ops
   clamp, and box construction near 2^62 degrades to None/Unknown
   rather than wrapping. *)

let big = max_int / 2

let overflow_boundaries () =
  Alcotest.check_raises "add overflow" Lattice.Overflow (fun () ->
      ignore (Lattice.Safe.add max_int 1));
  Alcotest.check_raises "mul overflow" Lattice.Overflow (fun () ->
      ignore (Lattice.Safe.mul big 3));
  Alcotest.(check int) "add at boundary" max_int (Lattice.Safe.add (max_int - 1) 1);
  Alcotest.(check int) "mul at boundary" (big * 2) (Lattice.Safe.mul big 2);
  Alcotest.(check int) "add_sat clamps" max_int (Lattice.Safe.add_sat max_int 5);
  Alcotest.(check int) "mul_sat clamps" max_int (Lattice.Safe.mul_sat big 3);
  Alcotest.(check int) "mul_sat sign" min_int (Lattice.Safe.mul_sat big (-3));
  (* A box spanning nearly the whole int range: bounds stay exact,
     cardinality answers must not wrap. *)
  (match Lattice.make ~base:0 [ (1 lsl 31, 1 lsl 31) ] with
  | Some b ->
      Alcotest.(check int) "huge hull hi" (((1 lsl 31) - 1) * (1 lsl 31)) (Lattice.hi b);
      Alcotest.(check (option int)) "huge card" (Some (1 lsl 31)) (Lattice.card b)
  | None -> Alcotest.fail "huge box should construct");
  (* Overflowing normalization degrades, never wraps. *)
  (match Lattice.make ~base:(max_int - 10) [ (4, max_int / 2) ] with
  | exception Lattice.Overflow -> ()
  | Some b -> (
      match Lattice.card b with
      | Some n -> Alcotest.fail (Printf.sprintf "wrapped cardinality %d" n)
      | None -> ())
  | None -> Alcotest.fail "nonempty box became empty")

let saturating_window () =
  (* n * len beyond max_int: the closed form must clamp, not wrap. *)
  let n = 1 lsl 31 and len = 1 lsl 32 in
  let hits =
    Lattice.hits (Lattice.lattice ~dims:[ (n, 0) ] ~len) ~a:0
      [ Lattice.Prog.block ~lo:0 ~hi:(max_int - 1) ]
  in
  Alcotest.(check bool) "saturates at max_int" true (hits = max_int)

(* The one floor/ceiling division and extended gcd, for either sign. *)
let division_helpers () =
  for a = -30 to 30 do
    for b = -7 to 7 do
      if b <> 0 then begin
        let q = float_of_int a /. float_of_int b in
        Alcotest.(check int) "fdiv" (int_of_float (Float.floor q)) (Lattice.fdiv a b);
        Alcotest.(check int) "cdiv" (int_of_float (Float.ceil q)) (Lattice.cdiv a b)
      end;
      if a >= 0 && b >= 0 then begin
        let g, x, y = Lattice.egcd a b in
        Alcotest.(check int) "egcd gcd" (Lattice.gcd a b) g;
        Alcotest.(check int) "egcd bezout" g ((a * x) + (b * y))
      end
    done
  done

let () =
  Alcotest.run "setalg"
    [
      ( "lattice",
        [
          card_exact;
          mem_sound;
          subset_sound;
          disjoint_sound;
          union_card_exact;
          iv_ops;
          Alcotest.test_case "fdiv/cdiv/egcd, either sign" `Quick
            division_helpers;
        ] );
      ("ownership", [ own_segments; own_sets; own_sets_wide ]);
      ( "windows",
        [ window_hits_exact; prog_hits_exact; per_proc_exact; per_proc_pieces ]
      );
      ( "shape",
        [
          Alcotest.test_case "events = oracle on registry" `Quick
            shape_matches_oracle;
          Alcotest.test_case "events = oracle on fuzz corpora" `Quick
            shape_matches_oracle_fuzz;
          Alcotest.test_case "work = oracle on registry" `Quick
            shape_work_matches;
          Alcotest.test_case "tally = oracle on registry" `Quick
            tally_matches_oracle;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "boundaries" `Quick overflow_boundaries;
          Alcotest.test_case "saturating window" `Quick saturating_window;
        ] );
    ]
