open Symbolic

let budget = 8192
let windows = Metrics.counter "tally.windows"
let alone = Metrics.counter "tally.alone"
let set_pieces = Metrics.counter "tally.set_pieces"

(* The monotone piece of the owner map that holds address [x >= base]:
   its first address, its last ([None] when it is unbounded), its
   direction and the fold at its first address.  With [c = rel mod d]
   (or [rel] without a period) the fold is [c] on [0..half], [m-1-c] on
   [half+1..m-1] and [c] on [m..d-1], and the owner is [fold / block mod
   h]. *)
let piece (own : Lattice.Own.t) x =
  let rel = Lattice.Safe.add x (-own.base) in
  let cell, c, last =
    match own.period with
    | Some d when d > 0 -> (rel - (rel mod d), rel mod d, Some (d - 1))
    | _ -> (0, rel, None)
  in
  let m = match own.mirror with Some m when m > 0 -> m | _ -> 0 in
  let half = (m - 1) / 2 in
  let a, e, sigma, fold =
    if c < m && c <= half then (0, Some half, 1, 0)
    else if c < m then
      let e = Option.fold ~none:(m - 1) ~some:(min (m - 1)) last in
      (half + 1, Some e, -1, m - 2 - half)
    else (m, last, 1, m)
  in
  let at = Lattice.Safe.add own.base cell in
  (Lattice.Safe.add at a, Option.map (Lattice.Safe.add at) e, sigma, fold)

type counts = {
  events : int array;
  owned : int array;
  ghost : int array;
  work : int array;
}

let proc_of_iteration ~chunk ~h i =
  let c = Int.max 1 chunk in
  let r = Lattice.fdiv i c mod h in
  if r >= 0 then r else r + h

let per_proc ~chunk ~h (t : Ir.Shape.t) (s : Ir.Shape.site) ~own ~window
    (c : counts) =
  let par_n = t.par_n and seq = s.seq in
  let empty =
    List.exists (fun (c, _) -> c <= 0) seq
    || match s.par with Ir.Shape.Strided _ -> par_n <= 0 | _ -> false
  in
  empty
  ||
  try
    (* One |stride| = 1 dimension becomes the contiguous window; the
       rest are lattice dimensions of the window sums, where a zero
       stride is a multiplicity. *)
    let contig, rest =
      let rec pick acc = function
        | [] -> (None, List.rev acc)
        | (c, s) :: tl when abs s = 1 && c > 1 ->
            (Some (c, s), List.rev_append acc tl)
        | d :: tl -> pick (d :: acc) tl
      in
      pick [] seq
    in
    let len, woff =
      match contig with
      | None -> (1, 0)
      | Some (c, s) -> (c, if s = 1 then 0 else -(c - 1))
    in
    let moving =
      List.fold_left
        (fun a (c, s) -> if s = 0 then a else Lattice.Safe.mul a c)
        1 rest
    in
    moving <= budget
    &&
    let per_iter =
      List.fold_left (fun a (c, _) -> Lattice.Safe.mul a c) len rest
    in
    (* Every event of an iteration at [a] lies in [a + reach_lo .. a +
       reach_hi]. *)
    let reach_lo, reach_hi =
      List.fold_left
        (fun (l, h) (c, s) ->
          let e = Lattice.Safe.mul (c - 1) s in
          (Lattice.Safe.add l (Int.min 0 e), Lattice.Safe.add h (Int.max 0 e)))
        (woff, Lattice.Safe.add woff (len - 1))
        rest
    in
    let ghost = window > 0 in
    let bump a pr v = a.(pr) <- Lattice.Safe.add a.(pr) v in
    (* Adds one run's counts to each run [r0], [r0 + every], ... up to
       [r1] of a group whose run [r] executes on processor
       [(pr0 + r) mod h]; with one slot, their total in one step. *)
    let attribute ~pr0 ~r0 ~every ~r1 ~ev ~work ~o ~g =
      if r0 <= r1 then
        if Array.length c.events = 1 then begin
          let k = ((r1 - r0) / every) + 1 in
          let add a v = bump a 0 (Lattice.Safe.mul k v) in
          add c.events ev;
          add c.work work;
          add c.owned o;
          if ghost then add c.ghost g
        end
        else begin
          let pr = ref ((pr0 + r0) mod h) and next = every mod h in
          let r = ref r0 in
          while !r <= r1 do
            bump c.events !pr ev;
            bump c.work !pr work;
            bump c.owned !pr o;
            if ghost then bump c.ghost !pr g;
            pr := if !pr + next >= h then !pr + next - h else !pr + next;
            r := !r + every
          done
        end
    in
    let classes = Hashtbl.create 8 in
    (* [count] consecutive chunk runs of [n] iterations, the first on
       processor [pr0] at address [start], each next one on the next
       processor (mod h) and [step] higher. *)
    let add_runs ~pr0 ~n ~d ~count start ~step =
      let ev = Lattice.Safe.mul n per_iter in
      let work = Lattice.Safe.mul s.work ev in
      let last = count - 1 in
      let start_of r = Lattice.Safe.(add start (mul step r)) in
      match own with
      | None -> attribute ~pr0 ~r0:0 ~every:1 ~r1:last ~ev ~work ~o:ev ~g:0
      | Some (own : Lattice.Own.t) ->
          (* A run's event hull, widened by the halo window when ghosts
             are counted, is [start + lo .. start + hi]. *)
          let span = Lattice.Safe.mul d (n - 1) in
          let lo = Lattice.Safe.add reach_lo (Int.min 0 span) - window
          and hi = Lattice.Safe.add reach_hi (Int.max 0 span) + window in
          (* The run at [start]'s owned and ghost hits on [pr]'s set,
             built over that run's hull only: the ghost zone (the
             addresses one shift of [window] away from the set, less
             the set) is exact on the unwidened hull. *)
          let lattice = Lattice.lattice ~dims:((n, d) :: rest) ~len in
          let eval ~pr start =
            let set =
              Lattice.Own.set own ~p:pr ~lo:(Lattice.Safe.add start lo)
                ~hi:(Lattice.Safe.add start hi)
            in
            Metrics.incr set_pieces ~by:(List.length set);
            Metrics.incr windows;
            let a = Lattice.Safe.add start woff in
            if ghost then begin
              Metrics.incr windows;
              Lattice.hits_and_ghost lattice ~a ~w:window set
            end
            else (Lattice.hits lattice ~a set, 0)
          in
          (* Runs [ra..rb] lie in one piece of direction [sigma] that
             starts at address [pa] with fold [fa].  Run [r]'s class
             kappa = (F - block*pr) mod (block*h), F the fold of its
             start extended affinely along the piece, advances by
             (sigma*step - block) per run, so runs [period] apart share
             a class and those closer do not: one window evaluation per
             class. *)
          let cycle = Lattice.Safe.mul own.block h in
          let classes_of ~ra ~rb ~sigma ~pa ~fa =
            let shift = Lattice.Safe.add (sigma * step) (-own.block) in
            let period = cycle / Lattice.gcd (shift mod cycle) cycle in
            for r = ra to ra + Int.min (rb - ra) (period - 1) do
              let pr = (pr0 + r) mod h and start = start_of r in
              let kappa =
                Lattice.Safe.(
                  add (add fa (mul sigma (add start (-pa)))) (-own.block * pr))
              in
              let k = kappa mod cycle in
              let key = (n, sigma, if k < 0 then k + cycle else k) in
              let o, g =
                match Hashtbl.find classes key with
                | hits -> hits
                | exception Not_found ->
                    let hits = eval ~pr start in
                    Hashtbl.add classes key hits;
                    hits
              in
              attribute ~pr0 ~r0:r ~every:period ~r1:rb ~ev ~work ~o ~g
            done
          in
          (* Starts move monotonically, so the runs from [r] on whose
             hulls fit the piece holding run [r]'s lowest address are
             one range, found by one division (an unbounded piece has
             no end to divide); a run below [base] or straddling a
             piece boundary is counted alone. *)
          let rec walk r =
            if r <= last then
              let lo_r = Lattice.Safe.add (start_of r) lo
              and hi_r = Lattice.Safe.add (start_of r) hi in
              match if lo_r < own.base then None else Some (piece own lo_r) with
              | Some (pa, pb, sigma, fa)
                when Option.fold ~none:true ~some:(fun pb -> hi_r <= pb) pb ->
                  let room =
                    if step > 0 then Option.map (fun pb -> pb - hi_r) pb
                    else if step < 0 then Some (lo_r - pa)
                    else None
                  in
                  let rb =
                    Option.fold ~none:last
                      ~some:(fun x -> r + Int.min (last - r) (x / abs step))
                      room
                  in
                  classes_of ~ra:r ~rb ~sigma ~pa ~fa;
                  walk (rb + 1)
              | _ ->
                  Metrics.incr alone;
                  let o, g = eval ~pr:((pr0 + r) mod h) (start_of r) in
                  attribute ~pr0 ~r0:r ~every:1 ~r1:r ~ev ~work ~o ~g;
                  walk (r + 1)
          in
          walk 0
    in
    match s.par with
    | Ir.Shape.Outside ->
        add_runs ~pr0:0 ~n:1 ~d:0 ~count:1 s.base ~step:0;
        true
    | Ir.Shape.Fixed i ->
        add_runs ~pr0:(proc_of_iteration ~chunk ~h i) ~n:1 ~d:0 ~count:1 s.base
          ~step:0;
        true
    | Ir.Shape.Strided d ->
        let chunk = Int.max 1 chunk in
        let full = par_n / chunk and tail = par_n mod chunk in
        full + Bool.to_int (tail > 0) <= budget
        &&
        let step = Lattice.Safe.mul d chunk in
        if full > 0 then add_runs ~pr0:0 ~n:chunk ~d ~count:full s.base ~step;
        if tail > 0 then
          add_runs ~pr0:(full mod h) ~n:tail ~d ~count:1
            Lattice.Safe.(add s.base (mul step full))
            ~step:0;
        true
  with Lattice.Overflow -> false
