type verdict = Yes | No | Unknown

let verdict_and a b =
  match (a, b) with
  | No, _ | _, No -> No
  | Unknown, _ | _, Unknown -> Unknown
  | Yes, Yes -> Yes

exception Overflow

module Safe = struct
  (* Same guards as Qnum's internal add_int/mul_int (PR 4): validate a
     product by dividing back, a sum by the sign of the result. *)
  let add a b =
    let s = a + b in
    if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow else s

  let mul a b =
    if a = 0 || b = 0 then 0
    else if (a = -1 && b = min_int) || (b = -1 && a = min_int) then raise Overflow
    else
      let p = a * b in
      if p / b <> a then raise Overflow else p

  let add_sat a b =
    match add a b with
    | s -> s
    | exception Overflow -> if a >= 0 then max_int else min_int

  let mul_sat a b =
    match mul a b with
    | p -> p
    | exception Overflow -> if (a >= 0) = (b >= 0) then max_int else min_int
end

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let rec egcd a b =
  if b = 0 then (a, 1, 0)
  else
    let g, x, y = egcd b (a mod b) in
    (g, y, x - (a / b * y))

(* [/] truncates toward zero: step the quotient once when the true
   quotient lies on the other side (sign test first, so a non-negative
   floor costs one branch) and the division is inexact. *)
let fdiv a b =
  let q = a / b in
  if (a lxor b) < 0 && a <> q * b then q - 1 else q

let cdiv a b =
  let q = a / b in
  if (a lxor b) >= 0 && a <> q * b then q + 1 else q

(* {1 Boxes} *)

type box = { base : int; dims : (int * int) list }

(* Normal form: strides positive and ascending; equal strides merged
   set-wise ((c1,s)+(c2,s) covers 0..(c1+c2-2)*s step s); a dense
   prefix - dimensions whose stride is at most the length of the
   interval accumulated so far - is collapsed into one stride-1
   dimension, because the union of translates of [0,p-1] at step s <= p
   is again an interval. *)
let make ~base dims =
  if List.exists (fun (c, _) -> c <= 0) dims then None
  else begin
    let base = ref base in
    let dims =
      List.filter_map
        (fun (c, s) ->
          if c = 1 || s = 0 then None
          else if s < 0 then begin
            base := Safe.add !base (Safe.mul (c - 1) s);
            Some (c, -s)
          end
          else Some (c, s))
        dims
    in
    let dims = List.sort (fun (_, s1) (_, s2) -> compare s1 s2) dims in
    let rec merge = function
      | (c1, s1) :: (c2, s2) :: rest when s1 = s2 ->
          merge ((Safe.add c1 (c2 - 1), s1) :: rest)
      | d :: rest -> d :: merge rest
      | [] -> []
    in
    let dims = merge dims in
    let p = ref 1 and outer = ref [] in
    List.iter
      (fun (c, s) ->
        if !outer = [] && s <= !p then p := Safe.add !p (Safe.mul (c - 1) s)
        else outer := (c, s) :: !outer)
      dims;
    let dims = (if !p > 1 then [ (!p, 1) ] else []) @ List.rev !outer in
    Some { base = !base; dims }
  end

let point x = { base = x; dims = [] }
let base b = b.base
let dims b = b.dims
let lo b = b.base

let span b =
  List.fold_left (fun acc (c, s) -> Safe.add acc (Safe.mul (c - 1) s)) 0 b.dims

let hi b = Safe.add b.base (span b)
let shift b k = { b with base = Safe.add b.base k }

(* One ascending scan computing cardinality, intervality and span.
   Invariant: [interval] implies the set built so far is exactly
   [0..span], i.e. [card = span + 1]. *)
type shape = { s_card : int option; s_interval : bool }

let analyze b =
  let rec scan sp card interval = function
    | [] -> { s_card = card; s_interval = interval }
    | (c, s) :: rest ->
        if s > sp then
          (* Distinct copies of the current set: positional digits. *)
          scan
            (Safe.add sp (Safe.mul (c - 1) s))
            (Option.map (fun k -> Safe.mul k c) card)
            (interval && s = sp + 1)
            rest
        else if interval then
          (* Overlapping translates of a full interval stay an interval. *)
          let sp' = Safe.add sp (Safe.mul (c - 1) s) in
          scan sp' (Some (Safe.add sp' 1)) true rest
        else scan (Safe.add sp (Safe.mul (c - 1) s)) None false rest
  in
  scan 0 (Some 1) true b.dims

let card b = try (analyze b).s_card with Overflow -> None

let interval b =
  try if (analyze b).s_interval then Some (b.base, hi b) else None
  with Overflow -> None

(* Nested-distinct: ascending strides, each strictly larger than the
   span of everything below it - the positional (mixed-radix) case,
   where greedy decomposition over descending strides is exact. *)
let distinct_nested b =
  let rec go sp = function
    | [] -> true
    | (c, s) :: rest -> s > sp && go (Safe.add sp (Safe.mul (c - 1) s)) rest
  in
  go 0 b.dims

(* Digits of [x - base] over the dimensions of a nested-distinct box,
   descending greedy with per-digit clamping; [None] when x is not a
   member.  Returns digits aligned with [b.dims] (ascending order). *)
let digits_exn b x =
  let desc = List.rev b.dims in
  let rem = ref (x - b.base) in
  let ds =
    List.map
      (fun (c, s) ->
        let d = fdiv !rem s in
        let d = if d < 0 then 0 else if d > c - 1 then c - 1 else d in
        rem := !rem - (d * s);
        d)
      desc
  in
  if !rem = 0 then Some (List.rev ds) else None

let mem b x =
  try
    if x < lo b || x > hi b then No
    else if distinct_nested b then
      match digits_exn b x with Some _ -> Yes | None -> No
    else Unknown
  with Overflow -> Unknown

let subset a w =
  try
    if lo a < lo w || hi a > hi w then No
    else if (analyze w).s_interval then Yes
    else if not (distinct_nested w) then Unknown
    else
      match digits_exn w a.base with
      | None -> No
      | Some ds -> (
          match digits_exn w (hi a) with
          | None -> No
          | Some _ ->
              (* Try to embed each dimension of [a] into the digit space
                 of [w]: a dimension (c, s) maps onto the w-dimension of
                 the largest stride sj dividing s, advancing its digit
                 by s/sj per step; the walk stays inside w iff the
                 digit never exceeds its radix. *)
              let w_dims = Array.of_list w.dims in
              let digit = Array.of_list ds in
              let used = Array.make (Array.length w_dims) 0 in
              let embed (c, s) =
                let j = ref (-1) in
                Array.iteri
                  (fun i (_, sj) -> if sj <= s && s mod sj = 0 then j := i)
                  w_dims;
                if !j < 0 then false
                else
                  let cj, sj = w_dims.(!j) in
                  match Safe.mul (c - 1) (s / sj) with
                  | steps ->
                      if digit.(!j) + used.(!j) + steps <= cj - 1 then begin
                        used.(!j) <- used.(!j) + steps;
                        true
                      end
                      else false
                  | exception Overflow -> false
              in
              if List.for_all embed a.dims then Yes else Unknown)
  with Overflow -> Unknown

(* Same stride vector, combined-nested: each stride strictly larger
   than the combined span of lower dimensions of both boxes.  Then a
   difference of members has a unique digit representation, found by
   descending search over at most two floor candidates per digit. *)
let same_strides a b =
  List.length a.dims = List.length b.dims
  && List.for_all2 (fun (_, s1) (_, s2) -> s1 = s2) a.dims b.dims

let combined_nested a b =
  let rec go sp da db =
    match (da, db) with
    | [], [] -> true
    | (ca, s) :: ra, (cb, _) :: rb ->
        s > sp && go (Safe.add sp (Safe.mul (ca + cb - 2) s)) ra rb
    | _ -> false
  in
  go 0 a.dims b.dims

(* Does delta have a representation sum e_j * s_j with
   e_j in [-(cb_j - 1), ca_j - 1]?  (Dims descending in the search.) *)
let diff_representable a b delta =
  let desc = List.rev (List.combine a.dims b.dims) in
  let rec go delta = function
    | [] -> delta = 0
    | ((ca, s), (cb, _)) :: rest ->
        let f = fdiv delta s in
        let try_e e =
          e >= -(cb - 1) && e <= ca - 1 && go (delta - (e * s)) rest
        in
        try_e f || try_e (f + 1)
  in
  go delta desc

let disjoint a b =
  try
    if hi a < lo b || hi b < lo a then Yes
    else begin
      (* Lattice separation: all strides share a divisor g that does
         not divide the base difference. *)
      let g =
        List.fold_left (fun g (_, s) -> gcd g s) 0 (a.dims @ b.dims)
      in
      if g >= 2 && (a.base - b.base) mod g <> 0 then Yes
      else if a.dims = [] then (match mem b a.base with Unknown -> Unknown | Yes -> No | No -> Yes)
      else if b.dims = [] then (match mem a b.base with Unknown -> Unknown | Yes -> No | No -> Yes)
      else if mem a b.base = Yes || mem b a.base = Yes then
        (* a base is always a member, so a Yes is a witness point *)
        No
      else if (analyze a).s_interval && (analyze b).s_interval then No
        (* hulls overlap and both are full intervals *)
      else if same_strides a b && combined_nested a b then
        if diff_representable a b (b.base - a.base) then No else Yes
      else Unknown
    end
  with Overflow -> Unknown

let bounds = function
  | [] -> None
  | b :: rest ->
      Some
        (List.fold_left
           (fun (l, h) b -> (min l (lo b), max h (hi b)))
           (lo b, hi b) rest)

(* {1 Interval lists} *)

module Iv = struct
  type t = (int * int) list

  let norm ivs =
    let ivs = List.filter (fun (l, h) -> l <= h) ivs in
    let ivs = List.sort compare ivs in
    let rec merge = function
      | (l1, h1) :: (l2, h2) :: rest when l2 <= h1 + 1 ->
          merge ((l1, max h1 h2) :: rest)
      | iv :: rest -> iv :: merge rest
      | [] -> []
    in
    merge ivs

  let union a b = norm (a @ b)

  let inter a b =
    let rec go a b acc =
      match (a, b) with
      | [], _ | _, [] -> List.rev acc
      | (l1, h1) :: ra, (l2, h2) :: rb ->
          let l = max l1 l2 and h = min h1 h2 in
          let acc = if l <= h then (l, h) :: acc else acc in
          if h1 < h2 then go ra b acc else go a rb acc
    in
    go a b []

  let subtract a b =
    let rec go a b acc =
      match a with
      | [] -> List.rev acc
      | (l1, h1) :: ra -> (
          match b with
          | [] -> go ra b ((l1, h1) :: acc)
          | (l2, h2) :: rb ->
              if h2 < l1 then go a rb acc
              else if l2 > h1 then go ra b ((l1, h1) :: acc)
              else
                let acc = if l1 < l2 then (l1, l2 - 1) :: acc else acc in
                if h1 > h2 then go ((h2 + 1, h1) :: ra) rb acc
                else go ra b acc)
    in
    go a b []

  let shift ivs k = List.map (fun (l, h) -> (Safe.add l k, Safe.add h k)) ivs
  let clamp ivs ~lo ~hi = inter ivs [ (lo, hi) ]

  let total ivs =
    List.fold_left (fun acc (l, h) -> Safe.add acc (h - l + 1)) 0 ivs

  let is_empty = function [] -> true | _ -> false
  let mem ivs x = List.exists (fun (l, h) -> l <= x && x <= h) ivs

  type packed = int array

  let pack ivs =
    let a = Array.make (2 * List.length ivs) 0 in
    List.iteri
      (fun k (l, h) ->
        a.(2 * k) <- l;
        a.((2 * k) + 1) <- h)
      ivs;
    a

  let unpack a =
    List.init (Array.length a / 2) (fun k -> (a.(2 * k), a.((2 * k) + 1)))
end

(* {1 Union cardinality via digit-space rectangles} *)

let union_dims_limit = 4

(* Volume of a union of axis-aligned integer rectangles, by coordinate
   compression on the last axis and recursion.  Rectangles are
   (corner, extent) arrays; all the same dimensionality. *)
let rec rect_union_volume dim rects =
  if rects = [] then 0
  else if dim = 0 then 1
  else
    let d = dim - 1 in
    let cuts =
      List.concat_map (fun r -> let c, e = r.(d) in [ c; c + e ]) rects
      |> List.sort_uniq compare
    in
    let rec segs acc = function
      | x1 :: (x2 :: _ as rest) ->
          let active =
            List.filter (fun r -> let c, e = r.(d) in c <= x1 && x2 <= c + e) rects
          in
          let sub = rect_union_volume d active in
          segs (Safe.add acc (Safe.mul (x2 - x1) sub)) rest
      | _ -> acc
    in
    segs 0 cuts

let union_card_exact boxes =
  match boxes with
  | [] -> Some 0
  | [ b ] -> card b
  | _ -> (
      try
        if List.for_all (fun b -> (analyze b).s_interval) boxes then
          Some (Iv.total (Iv.norm (List.map (fun b -> (lo b, hi b)) boxes)))
        else begin
          let strides =
            List.concat_map (fun b -> List.map snd b.dims) boxes
            |> List.sort_uniq compare
          in
          if List.length strides > union_dims_limit then None
          else begin
            let strides = Array.of_list strides in
            let nd = Array.length strides in
            let origin =
              List.fold_left (fun m b -> min m b.base) max_int boxes
            in
            (* Decompose each base offset over the stride basis,
               descending greedy; digits must be exact and >= 0. *)
            let exception Out in
            let rect_of b =
              let rem = ref (b.base - origin) in
              let corner = Array.make nd 0 in
              for j = nd - 1 downto 0 do
                let d = !rem / strides.(j) in
                corner.(j) <- d;
                rem := !rem - (d * strides.(j))
              done;
              if !rem <> 0 then raise Out;
              let extent = Array.make nd 1 in
              List.iter
                (fun (c, s) ->
                  let j = ref (-1) in
                  Array.iteri (fun i sj -> if sj = s then j := i) strides;
                  extent.(!j) <- c)
                b.dims;
              Array.init nd (fun j -> (corner.(j), extent.(j)))
            in
            match List.map rect_of boxes with
            | rects ->
                (* Injectivity of the digit map over the combined hull:
                   each stride must exceed the span of the hulls of all
                   lower digits. *)
                let ok = ref true in
                let sp = ref 0 in
                for j = 0 to nd - 1 do
                  if strides.(j) <= !sp then ok := false;
                  let cmin =
                    List.fold_left (fun m r -> min m (fst r.(j))) max_int rects
                  in
                  let cmax =
                    List.fold_left
                      (fun m r -> max m (fst r.(j) + snd r.(j) - 1))
                      min_int rects
                  in
                  sp := Safe.add !sp (Safe.mul (cmax - cmin) strides.(j))
                done;
                if not !ok then None
                else Some (rect_union_volume nd rects)
            | exception Out -> None
          end
        end
      with Overflow -> None)

(* Domain-local; a spawned domain starts with its parent's value. *)
let card_skew = Domain.DLS.new_key ~split_from_parent:(fun r -> ref !r) (fun () -> ref 0)
let test_card_skew () = Domain.DLS.get card_skew

let union_card boxes =
  match union_card_exact boxes with
  | Some n when n > 0 && !(test_card_skew ()) <> 0 -> Some (n + !(test_card_skew ()))
  | r -> r

(* {1 Ownership} *)

module Own = struct
  type t = {
    h : int;
    base : int;
    block : int;
    period : int option;
    mirror : int option;
  }

  let owner_at ~h ~base ~block ~period ~mirror addr =
    let rel = addr - base in
    let rel = if rel < 0 then 0 else rel in
    let rel = match period with Some d when d > 0 -> rel mod d | _ -> rel in
    let rel =
      match mirror with
      | Some m when m > 0 && rel < m -> min rel (m - 1 - rel)
      | _ -> rel
    in
    rel / block mod h

  let owner o addr =
    owner_at ~h:o.h ~base:o.base ~block:o.block ~period:o.period
      ~mirror:o.mirror addr

  (* Largest e in [x, hi] such that the owner is constant on [x, e]:
     intersect the current period cell, the current block of the
     (possibly mirrored) fold coordinate, and the current mirror
     branch. *)
  let run_end o ~hi x =
    if x < o.base then min hi (o.base - 1)
    else begin
      let rel = x - o.base in
      let e_period, r =
        match o.period with
        | Some d when d > 0 -> (x + (d - (rel mod d)) - 1, rel mod d)
        | _ -> (max_int, rel)
      in
      let e =
        match o.mirror with
        | Some m when m > 0 && r < m ->
            let half = (m - 1) / 2 in
            if r <= half then
              (* ascending branch: fold coord f = r *)
              let e_block = x + (o.block - (r mod o.block)) - 1 in
              min (min e_period e_block) (x + (half - r))
            else
              (* descending branch: f = m-1-r decreases as r grows;
                 f stays in its block while f >= floor(f/b)*b *)
              let f = m - 1 - r in
              let flo = f / o.block * o.block in
              min e_period (x + (m - 1 - flo - r))
        | _ -> min e_period (x + (o.block - (r mod o.block)) - 1)
      in
      min hi e
    end

  (* The refinement of two owner maps' constant-owner runs, walked
     together: each step ends where either map's run ends. *)
  let segments a b ~lo ~hi f =
    let rec go x =
      if x <= hi then begin
        let e = min (run_end a ~hi x) (run_end b ~hi x) in
        let p = owner a x and q = owner b x in
        assert (owner a e = p && owner b e = q);
        f x e p q;
        go (e + 1)
      end
    in
    if a.h > 0 && a.block > 0 && b.h > 0 && b.block > 0 then go lo

  (* One processor's set in closed form.  Above [base] the owner only
     depends on the fold coordinate [f] of [rel] (period cell, then
     mirror), and [f]'s owner is [f / block mod h]: the set is the
     blocks [k*block .. k*block+block-1] with [k mod h = p], read
     forwards on the ascending side of the mirror and on the unmirrored
     rest, backwards on its descending side, and repeated per period
     cell.  Below [base] every address belongs to processor 0.
     Intervals are emitted in ascending order, merged when adjacent,
     and clipped to [lo..hi]. *)
  let set o ~p ~lo ~hi ~budget =
    let exception Full in
    let b = o.block and h = o.h in
    (* [p]'s blocks of the fold coordinate within [clo..chi], ascending
       or descending. *)
    let blocks ~clo ~chi ~up f =
      if clo <= chi then
        if up then begin
          let k0 = clo / b in
          let k = ref (k0 + (((p - k0) mod h) + h) mod h) in
          while !k <= chi / b do
            f (max (!k * b) clo) (min ((!k * b) + b - 1) chi);
            k := !k + h
          done
        end
        else begin
          let k1 = chi / b in
          let k = ref (k1 - (((k1 - p) mod h) + h) mod h) in
          while !k >= 0 && (!k * b) + b - 1 >= clo do
            f (max (!k * b) clo) (min ((!k * b) + b - 1) chi);
            k := !k - h
          done
        end
    in
    (* [p]'s addresses [rel] of one cell's fold range [a..b'], passed to
       [f] ascending. *)
    let cell ~a ~b:b' f =
      let m0 =
        match o.mirror with
        | Some m when m > 0 ->
            let half = (m - 1) / 2 in
            blocks ~clo:a ~chi:(min b' half) ~up:true f;
            let rlo = max a (half + 1) and rhi = min b' (m - 1) in
            blocks ~clo:(m - 1 - rhi) ~chi:(m - 1 - rlo) ~up:false (fun l e ->
                f (m - 1 - e) (m - 1 - l));
            m
        | _ -> 0
      in
      blocks ~clo:(max a m0) ~chi:b' ~up:true f
    in
    (* The whole set, ascending, clipped to [lo..hi], possibly with
       adjacent pieces. *)
    let walk f =
      let f l e =
        let l = max l lo and e = min e hi in
        if l <= e then f l e
      in
      if h = 1 then f lo hi
      else begin
        if p = 0 then f lo (Safe.add o.base (-1));
        if hi >= o.base then begin
          let rlo = Safe.add (max lo o.base) (-o.base)
          and rhi = Safe.add hi (-o.base) in
          match o.period with
          | Some d when d > 0 -> (
              let pattern = ref [] and n = ref 0 in
              cell ~a:0 ~b:(d - 1) (fun l e ->
                  incr n;
                  if !n > budget then raise Full;
                  pattern := (l, e) :: !pattern);
              (* A whole cell merges with the next into one interval;
                 any other non-empty pattern adds an interval per cell,
                 so the budget bounds the loop. *)
              match List.rev !pattern with
              | [] -> ()
              | [ (0, e) ] when e = d - 1 -> f (o.base + rlo) (o.base + rhi)
              | pattern ->
                  for j = rlo / d to rhi / d do
                    let at = Safe.add o.base (Safe.mul j d) in
                    List.iter (fun (l, e) -> f (at + l) (at + e)) pattern
                  done)
          | _ -> cell ~a:rlo ~b:rhi (fun l e -> f (o.base + l) (o.base + e))
        end
      end
    in
    (* Two walks: one counts the merged intervals, the other fills an
       array of exactly that size. *)
    let n = ref 0 and last = ref 0 in
    match
      walk (fun l e ->
          if !n > 0 && !last >= l - 1 then last := max e !last
          else begin
            if !n >= budget then raise Full;
            incr n;
            last := e
          end)
    with
    | exception Full -> None
    | () ->
        let set = Array.make (2 * !n) 0 and k = ref 0 in
        walk (fun l e ->
            if !k > 0 && set.(!k - 1) >= l - 1 then
              set.(!k - 1) <- max e set.(!k - 1)
            else begin
              set.(!k) <- l;
              set.(!k + 1) <- e;
              k := !k + 2
            end);
        Some set
end

(* {1 Progression-window hit counting}

   f(x) = |[x, x+len-1] /\ [blo, bhi]| is a trapezoid in x: ascending
   with slope 1 up to the plateau M = min(len, bhi-blo+1), then
   descending with slope -1.  Summing f over x = a + i*d for i < n
   splits the index range into three arithmetic series. *)

let range_sum ~c ~first ~step =
  (* sum_{j=0}^{c-1} (first + j*step); terms are in [0, plateau] so the
     saturating products only clamp when the true total is huge. *)
  if c <= 0 then 0
  else
    let e = if c land 1 = 0 then c / 2 * (c - 1) else c * ((c - 1) / 2) in
    Safe.add_sat (Safe.mul_sat c first) (Safe.mul_sat step e)

let interval_hits ~a ~d ~n ~len ~blo ~bhi =
  if n <= 0 || len <= 0 || blo > bhi then 0
  else if d = 0 then
    let l = max a blo and h = min (a + len - 1) bhi in
    if l > h then 0 else Safe.mul_sat n (h - l + 1)
  else
    let a, d = if d < 0 then (a + ((n - 1) * d), -d) else (a, d) in
    let m = min len (bhi - blo + 1) in
    let i_lo = max 0 (cdiv (blo - len + 1 - a) d) in
    let i_hi = min (n - 1) (fdiv (bhi - a) d) in
    if i_lo > i_hi then 0
    else begin
      let mid = fdiv (bhi + blo + 1 - len) 2 in
      let t1 = min (blo - len + m) mid in
      let t2 = max (bhi + 1 - m) (mid + 1) in
      let ia_hi = min i_hi (fdiv (t1 - a) d) in
      let id_lo = max i_lo (cdiv (t2 - a) d) in
      let asc =
        if ia_hi >= i_lo then
          range_sum ~c:(ia_hi - i_lo + 1)
            ~first:(a + (i_lo * d) - (blo - len))
            ~step:d
        else 0
      in
      let desc =
        if i_hi >= id_lo then
          range_sum ~c:(i_hi - id_lo + 1)
            ~first:(bhi - (a + (id_lo * d)) + 1)
            ~step:(-d)
        else 0
      in
      let p_lo = max i_lo (ia_hi + 1) and p_hi = min i_hi (id_lo - 1) in
      let plateau =
        if p_hi >= p_lo then Safe.mul_sat (p_hi - p_lo + 1) m else 0
      in
      Safe.add_sat asc (Safe.add_sat desc plateau)
    end

(* Intervals outside the progression's hull add 0, so only those
   meeting it are summed: a binary search finds the first interval
   ending at or after the hull's start, and the sum stops at the first
   one starting past its end.  A saturated hull is only wider. *)
let window_hits ~a ~d ~n ~len set =
  let m = Array.length set / 2 in
  if n <= 0 || len <= 0 || m = 0 then 0
  else begin
    let last = Safe.add_sat a (Safe.mul_sat (n - 1) d) in
    let lo = min a last and hi = Safe.add_sat (max a last) (len - 1) in
    let l = ref 0 and r = ref m in
    while !l < !r do
      let mid = (!l + !r) / 2 in
      if set.((2 * mid) + 1) < lo then l := mid + 1 else r := mid
    done;
    let acc = ref 0 and k = ref !l in
    while !k < m && set.(2 * !k) <= hi do
      acc :=
        Safe.add_sat !acc
          (interval_hits ~a ~d ~n ~len ~blo:set.(2 * !k)
             ~bhi:set.((2 * !k) + 1));
      incr k
    done;
    !acc
  end

(* {1 Mode} *)

type mode = Auto | Symbolic_only | Enumerated_only

(* Domain-local like [card_skew]; [mode] is the main domain's cell. *)
let mode = ref Auto
let mode_key = Domain.DLS.new_key ~split_from_parent:(fun r -> ref !r) (fun () -> ref Auto)
let () = Domain.DLS.set mode_key mode
let mode_cell () = Domain.DLS.get mode_key

exception Outside_fragment of string

let fallback_counter = Metrics.counter "symbolic.fallback"
let fallbacks = Domain.DLS.new_key (fun () -> ref 0)

let note_fallback ~stage reason =
  incr (Domain.DLS.get fallbacks);
  Metrics.incr fallback_counter;
  Metrics.incr (Metrics.counter ("symbolic.fallback." ^ stage));
  if !(mode_cell ()) = Symbolic_only then
    raise (Outside_fragment (stage ^ ": " ^ reason))

let closed_or_enumerate ~stage ~reason ~symbolic ~enum =
  match !(mode_cell ()) with
  | Enumerated_only -> enum ()
  | Auto | Symbolic_only -> (
      match symbolic () with
      | Some x -> x
      | None ->
          note_fallback ~stage (reason ());
          enum ())

let fallback_count () = !(Domain.DLS.get fallbacks)
