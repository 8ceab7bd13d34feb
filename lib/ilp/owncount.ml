open Symbolic

let budget = 8192

let intervals_of own ~lo ~hi =
  if lo > hi then None
  else Lattice.Own.intervals own ~lo ~hi ~budget

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
   without allocating: this runs once per chunk run and set family. *)
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

let per_proc ~chunk ~owner (t : Ir.Shape.t) (s : Ir.Shape.site) ~owned ~ghost
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
    (* Closures here are built once per site, not per run. *)
    let hits (sets : Lattice.Iv.packed array) ~pr ~n ~d start =
      window_sum sets.(pr) ~d ~n ~len ~base:(Lattice.Safe.add start woff) 0
        offs
    in
    let bump a pr v = a.(pr) <- Lattice.Safe.add a.(pr) v in
    let add_run ~pr ~n ~d start =
      let ev = Lattice.Safe.mul n (Lattice.Safe.mul len prod) in
      bump c.events pr ev;
      bump c.work pr (Lattice.Safe.mul s.work ev);
      bump c.owned pr
        (match owned with None -> ev | Some o -> hits o ~pr ~n ~d start);
      match ghost with
      | None -> ()
      | Some g -> bump c.ghost pr (hits g ~pr ~n ~d start)
    in
    match s.par with
    | Ir.Shape.Outside ->
        add_run ~pr:0 ~n:1 ~d:0 s.base;
        true
    | Ir.Shape.Fixed i ->
        add_run ~pr:(owner i) ~n:1 ~d:0 s.base;
        true
    | Ir.Shape.Strided d ->
        let chunk = max 1 chunk in
        let runs = (par_n + chunk - 1) / chunk in
        runs <= budget
        &&
        (for q = 0 to runs - 1 do
           let i0 = q * chunk in
           let n = min chunk (par_n - i0) in
           add_run ~pr:(owner i0) ~n ~d
             (Lattice.Safe.add s.base (Lattice.Safe.mul d i0))
         done;
         true)
  with Lattice.Overflow -> false
