open Symbolic

let budget = 8192
let windows = Metrics.counter "tally.windows"

exception Exhausted

type sets = {
  own : Lattice.Own.t;
  window : int;
  lo : int;
  hi : int;
  cycle : int option;  (* block*h on a plain layout: rotation classes *)
  owned : (int, Lattice.Iv.packed) Hashtbl.t;
  ghost : (int, Lattice.Iv.packed) Hashtbl.t;
}

let sets (own : Lattice.Own.t) ~window ~lo ~hi =
  let plain =
    (match own.period with Some d -> d <= 0 | None -> true)
    && match own.mirror with Some m -> m <= 0 | None -> true
  in
  {
    own;
    window;
    lo = Lattice.Safe.add lo (-window);
    hi = Lattice.Safe.add hi window;
    cycle =
      (if plain then
         try Some (Lattice.Safe.mul own.block own.h)
         with Lattice.Overflow -> None
       else None);
    owned = Hashtbl.create 8;
    ghost = Hashtbl.create 8;
  }

(* Hits allocate nothing: runs outside every class ask once each. *)
let owned_set s p =
  match Hashtbl.find s.owned p with
  | set -> set
  | exception Not_found -> (
      match Lattice.Own.set s.own ~p ~lo:s.lo ~hi:s.hi ~budget with
      | Some set ->
          Hashtbl.add s.owned p set;
          set
      | None -> raise Exhausted)

(* Addresses within the window of [p]'s set but not in it: exact on
   [lo + window .. hi - window], the hull the events lie in. *)
let ghost_set s p =
  match Hashtbl.find s.ghost p with
  | set -> set
  | exception Not_found ->
      let o = Lattice.Iv.unpack (owned_set s p) and w = s.window in
      let set =
        Lattice.Iv.(pack (subtract (union (shift o w) (shift o (-w))) o))
      in
      Hashtbl.add s.ghost p set;
      set

(* Enumerate the address offsets of the non-window sequential
   dimensions, with multiplicity (zero and duplicate strides emit
   duplicate offsets, exactly as the nest would). *)
let offsets dims =
  List.fold_left
    (fun acc (c, s) ->
      List.concat_map
        (fun off ->
          List.init c (fun k -> Lattice.Safe.add off (Lattice.Safe.mul k s)))
        acc)
    [ 0 ] dims

(* Hits of the windows at [base + off] for every offset, summed
   without allocating: this runs once per rotation class and set. *)
let rec window_sum set ~d ~n ~len ~base acc = function
  | [] -> acc
  | off :: rest ->
      let a = Lattice.Safe.add base off in
      window_sum set ~d ~n ~len ~base
        (Lattice.Safe.add acc (Lattice.window_hits ~a ~d ~n ~len set))
        rest

type counts = {
  events : int array;
  owned : int array;
  ghost : int array;
  work : int array;
}

let proc_of_iteration ~chunk ~h i = i / Int.max 1 chunk mod h

let per_proc ~chunk ~h (t : Ir.Shape.t) (s : Ir.Shape.site) ~owned ~ghost
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
       rest are enumerated. *)
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
    let prod = List.fold_left (fun a (c, _) -> Lattice.Safe.mul a c) 1 rest in
    prod <= budget
    &&
    let offs = offsets rest in
    let per_iter = Lattice.Safe.mul len prod in
    let hits set ~n ~d start =
      Metrics.incr windows;
      window_sum set ~d ~n ~len ~base:(Lattice.Safe.add start woff) 0 offs
    in
    let owned_hits sets ~pr ~n ~d start = hits (owned_set sets pr) ~n ~d start in
    let ghost_hits sets ~pr ~n ~d start =
      if ghost then hits (ghost_set sets pr) ~n ~d start else 0
    in
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
      match owned with
      | None -> attribute ~pr0 ~r0:0 ~every:1 ~r1:last ~ev ~work ~o:ev ~g:0
      | Some sets -> (
          let alone r =
            let pr = (pr0 + r) mod h and start = start_of r in
            attribute ~pr0 ~r0:r ~every:1 ~r1:r ~ev ~work
              ~o:(owned_hits sets ~pr ~n ~d start)
              ~g:(ghost_hits sets ~pr ~n ~d start)
          in
          match sets.cycle with
          | None ->
              for r = 0 to last do
                alone r
              done
          | Some cycle ->
              (* The equivariant runs [ra..rb]: those whose lowest
                 address, less the halo window, is at or above [base]
                 - a prefix or suffix of the group, as starts move
                 monotonically. *)
              let own = sets.own in
              let reach =
                Lattice.Safe.(
                  add
                    (add woff (List.fold_left Int.min 0 offs))
                    (Int.min 0 (mul d (n - 1))))
                - if ghost then sets.window else 0
              in
              let above = Lattice.Safe.(add start (add reach (-own.base))) in
              let ra, rb =
                if above >= 0 then
                  (0, if step >= 0 then last else Int.min last (above / -step))
                else if step > 0 then ((-above + step - 1) / step, last)
                else (count, last)
              in
              for r = 0 to Int.min last (ra - 1) do
                alone r
              done;
              for r = Int.max ra (rb + 1) to last do
                alone r
              done;
              (* Run [r]'s class kappa = (start - base - block*pr) mod
                 (block*h) advances by (step - block) per run, so runs
                 [period] apart share a class and those closer do not:
                 one window evaluation per class. *)
              if ra <= rb then begin
                let shift = Lattice.Safe.add step (-own.block) mod cycle in
                let period = cycle / Lattice.gcd shift cycle in
                let first_period =
                  if period > rb - ra then rb else ra + period - 1
                in
                for r = ra to first_period do
                  let pr = (pr0 + r) mod h and start = start_of r in
                  let kappa =
                    Lattice.Safe.add start (-own.base) - (own.block * pr)
                  in
                  let key = (n, ((kappa mod cycle) + cycle) mod cycle) in
                  let o, g =
                    match Hashtbl.find classes key with
                    | hits -> hits
                    | exception Not_found ->
                        let hits =
                          ( owned_hits sets ~pr ~n ~d start,
                            ghost_hits sets ~pr ~n ~d start )
                        in
                        Hashtbl.add classes key hits;
                        hits
                  in
                  attribute ~pr0 ~r0:r ~every:period ~r1:rb ~ev ~work ~o ~g
                done
              end)
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
  with Lattice.Overflow | Exhausted -> false
