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

  (* Factors within +-2^30 have a product within +-2^60: no check. *)
  let mul a b =
    if a >= -0x4000_0000 && a <= 0x4000_0000 && b >= -0x4000_0000
       && b <= 0x4000_0000
    then a * b
    else if a = 0 || b = 0 then 0
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

let lo b = b.base

let span b =
  List.fold_left (fun acc (c, s) -> Safe.add acc (Safe.mul (c - 1) s)) 0 b.dims

let hi b = Safe.add b.base (span b)

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

  let total ivs =
    List.fold_left (fun acc (l, h) -> Safe.add acc (h - l + 1)) 0 ivs

  let mem ivs x = List.exists (fun (l, h) -> l <= x && x <= h) ivs
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

(* {1 Progressions of blocks} *)

module Prog = struct
  type t = { first : int; width : int; stride : int; count : int }

  (* A single block keeps [stride = width], so that its periodic span
     [first .. first + count*stride - 1] is the block itself; touching
     blocks are one block. *)
  let make ~first ~width ~stride ~count =
    if count = 1 || stride = width then begin
      let width = Safe.mul width count in
      ignore (Safe.add first (width - 1));
      { first; width; stride = width; count = 1 }
    end
    else begin
      ignore (Safe.add first (Safe.add (Safe.mul (count - 1) stride) (width - 1)));
      { first; width; stride; count }
    end

  let block ~lo ~hi = make ~first:lo ~width:(hi - lo + 1) ~stride:0 ~count:1
  (* No block of a progression lies past its last address, which
     [make] checks is representable. *)
  let start r k = r.first + (k * r.stride)
  let last r = Safe.add (start r (r.count - 1)) (r.width - 1)
  let card r = Safe.mul r.width r.count
  let shift r k = { r with first = Safe.add r.first k }

  let iter r f =
    for k = 0 to r.count - 1 do
      f (start r k) (start r k + r.width - 1)
    done

  let mem r x =
    x >= r.first && x <= last r && (x - r.first) mod r.stride < r.width

  let below r y =
    let z = Safe.add y (-r.first) in
    if z <= 0 then 0
    else
      let q = z / r.stride in
      if q >= r.count then card r
      else Safe.add (Safe.mul q r.width) (min (z - (q * r.stride)) r.width)

  (* The blocks of [r] meeting [lo..hi], clipped: a partial first and
     last block each on their own, the full ones between as one
     progression. *)
  let clip r ~lo ~hi =
    let kl = max 0 (cdiv (Safe.add lo (-r.first - r.width + 1)) r.stride)
    and kh = min (r.count - 1) (fdiv (Safe.add hi (-r.first)) r.stride) in
    if lo > hi || kl > kh then []
    else
      let full k = start r k >= lo && start r k + r.width - 1 <= hi in
      let piece k = block ~lo:(max lo (start r k)) ~hi:(min hi (start r k + r.width - 1)) in
      if kl = kh then [ piece kl ]
      else
        let head, k0 = if full kl then ([], kl) else ([ piece kl ], kl + 1) in
        let tail, k1 = if full kh then ([], kh) else ([ piece kh ], kh - 1) in
        let mid =
          if k0 <= k1 then
            [ make ~first:(start r k0) ~width:r.width ~stride:r.stride ~count:(k1 - k0 + 1) ]
          else []
        in
        head @ mid @ tail

  (* Two progressions of one stride meet block against block at no more
     than two relative block offsets [j] (widths are at most the
     stride), each a progression of that stride; otherwise the one with
     fewer blocks is clipped against block by block. *)
  let inter a b =
    if last a < b.first || last b < a.first then []
    else if a.count = 1 then clip b ~lo:a.first ~hi:(last a)
    else if b.count = 1 then clip a ~lo:b.first ~hi:(last b)
    else if a.stride = b.stride then begin
      let t = a.stride and delta = Safe.add b.first (-a.first) in
      let j_lo = cdiv (-delta - b.width + 1) t and j_hi = fdiv (a.width - 1 - delta) t in
      List.concat_map
        (fun j ->
          let o = delta + (j * t) in
          let l = max 0 o and h = min (a.width - 1) (o + b.width - 1) in
          let k0 = max 0 (-j) and k1 = min (a.count - 1) (b.count - 1 - j) in
          if l > h || k0 > k1 then []
          else
            [ make ~first:(Safe.add (start a k0) l) ~width:(h - l + 1) ~stride:t
                ~count:(k1 - k0 + 1) ])
        (List.init (max 0 (j_hi - j_lo + 1)) (( + ) j_lo))
    end
    else
      let a, b = if a.count <= b.count then (a, b) else (b, a) in
      List.concat
        (List.init a.count (fun k -> clip b ~lo:(start a k) ~hi:(start a k + a.width - 1)))
end

(* All pairwise intersections; pairs whose hulls are apart cost one
   comparison each. *)
let inter_sets xs ys =
  List.fold_left
    (fun acc (a : Prog.t) ->
      let la = Prog.last a in
      List.fold_left
        (fun acc (b : Prog.t) ->
          if la < b.first || Prog.last b < a.first then acc
          else List.rev_append (Prog.inter a b) acc)
        acc ys)
    [] xs

(* {1 Window hit counting}

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

(* A lattice of windows in normal form: strides made positive by
   moving the origin to the lowest point ([shift]), zero strides (and
   unit counts) folded into a multiplicity, strides descending;
   [ext.(i)] is the span of the dimensions from [i] on. *)
type lattice = {
  shift : int;
  mult : int;
  ds : (int * int) array;
  ext : int array;
  len : int;
}

let lattice ~dims ~len =
  if len <= 0 || List.exists (fun (c, _) -> c <= 0) dims then
    { shift = 0; mult = 0; ds = [||]; ext = [| 0 |]; len = 1 }
  else begin
    let shift = ref 0 and mult = ref 1 and moving = ref [] in
    List.iter
      (fun (c, s) ->
        if s = 0 then mult := Safe.mul_sat !mult c
        else if c > 1 then begin
          if s < 0 then shift := Safe.add !shift (Safe.mul (c - 1) s);
          moving := (c, abs s) :: !moving
        end)
      dims;
    let ds =
      match !moving with
      | ([] | [ _ ]) as one -> Array.of_list one
      | many -> Array.of_list (List.sort (fun (_, s1) (_, s2) -> Int.compare s2 s1) many)
    in
    let n = Array.length ds in
    let ext = Array.make (n + 1) 0 in
    for i = n - 1 downto 0 do
      let c, s = ds.(i) in
      ext.(i) <- Safe.add ext.(i + 1) (Safe.mul (c - 1) s)
    done;
    { shift = !shift; mult = !mult; ds; ext; len }
  end

(* The windows of [c] starts [x, x+s, ...] summed block by block over
   the [blocks] blocks of [r] from [b0] on. *)
let block_hits (r : Prog.t) ~b0 ~blocks ~x ~s ~c ~len =
  let acc = ref 0 in
  for b = b0 to b0 + blocks - 1 do
    let blo = Prog.start r b in
    acc :=
      Safe.add_sat !acc
        (interval_hits ~a:x ~d:s ~n:c ~len ~blo ~bhi:(blo + r.width - 1))
  done;
  !acc

(* The lattice's windows against one progression [r], dimension by
   dimension.  At dimension [i] the sub-lattice of index [k] spans
   [x + k*s .. x + k*s + w]: the indices whose span misses [r] add
   nothing, and those whose span lies in [r]'s periodic span
   [first .. first + count*stride - 1] add a value periodic in [k]
   with period [p = stride / gcd s stride] (1 for a single block), so
   [p] of them, weighted, stand for all; only the indices straddling
   an end of [r] are summed one by one.  The last dimension's windows
   alone are instead summed block by block (trapezoids) when fewer
   blocks than terms meet them, and a single window is
   [below (x + len) - below x]. *)
let rec prog_hits (r : Prog.t) l i x =
  let ds = l.ds and len = l.len in
  if i = Array.length ds then Safe.add (Prog.below r (x + len)) (-Prog.below r x)
  else begin
    let c, s = ds.(i) in
    let w = l.ext.(i + 1) + len - 1 in
    let innermost = i + 1 = Array.length ds in
    let b0 = max 0 (cdiv (x - r.first - r.width + 1) r.stride) in
    let blocks =
      if innermost then
        min (r.count - 1) (fdiv (x + w + ((c - 1) * s) - r.first) r.stride) - b0 + 1
      else max_int
    in
    if blocks <= 2 then block_hits r ~b0 ~blocks ~x ~s ~c ~len
    else begin
      let kf = max 0 (cdiv (r.first - x - w) s)
      and kl = min (c - 1) (fdiv (Prog.last r - x) s) in
      let span_hi = Safe.add r.first (Safe.mul r.count r.stride) - 1 in
      let i0 = max kf (cdiv (r.first - x) s)
      and i1 = min kl (fdiv (span_hi - x - w) s) in
      let p = if r.count = 1 then 1 else r.stride / gcd s r.stride in
      let m = max 0 (i1 - i0 + 1) in
      if kf > kl then 0
      else if blocks <= kl - kf + 1 - m + min m p then
        block_hits r ~b0 ~blocks ~x ~s ~c ~len
      else begin
        let acc = ref 0 in
        let add k times =
          acc := Safe.add_sat !acc (Safe.mul_sat times (prog_hits r l (i + 1) (x + (k * s))))
        in
        for k = kf to min kl (i0 - 1) do
          add k 1
        done;
        if m <= p then
          for k = i0 to i1 do
            add k 1
          done
        else begin
          let full = m / p and rem = m mod p in
          for t = 0 to p - 1 do
            add (i0 + t) (if t < rem then full + 1 else full)
          done
        end;
        for k = max i0 (i1 + 1) to kl do
          add k 1
        done;
        !acc
      end
    end
  end

let rec sum_hits l a acc = function
  | [] -> acc
  | r :: rest -> sum_hits l a (Safe.add_sat acc (prog_hits r l 0 a)) rest

let hits l ~a set =
  match l.mult with
  | 0 -> 0
  | 1 -> sum_hits l (Safe.add a l.shift) 0 set
  | m -> Safe.mul_sat m (sum_hits l (Safe.add a l.shift) 0 set)

(* The zone's hits as signed terms: by inclusion-exclusion over the
   shifted copies, [((S+w) ∪ (S-w)) \ S] counts as
   [S+w] + [S-w] - [(S+w) ∩ (S-w)] - [(S+w) ∩ S] - [(S-w) ∩ S]
   + [(S+w) ∩ (S-w) ∩ S]. *)
let ghost ~w set =
  let up = List.map (fun r -> Prog.shift r w) set
  and down = List.map (fun r -> Prog.shift r (-w)) set in
  let both = inter_sets up down in
  [
    (1, up);
    (1, down);
    (-1, both);
    (-1, inter_sets up set);
    (-1, inter_sets down set);
    (1, inter_sets both set);
  ]

(* When consecutive blocks (in address order, over the whole set) are
   at least [2w] apart, each block's zone meets no other block: a block
   at least [w] wide has the zone [[s-w, e+w]] less itself, so its
   progression widened by [w] on both sides counts the zone and the
   block; a narrower block's zone is its two shifted copies, counted
   by moving the lattice instead.  Otherwise [ghost]'s terms count
   it.  Differences of counts are exact: they raise [Overflow] rather
   than saturate. *)
let hits_and_ghost l ~a ~w set =
  let owned = hits l ~a set in
  let rec apart = function
    | (r : Prog.t) :: rest ->
        (r.count = 1 || r.stride - r.width >= 2 * w)
        && (match rest with
           | (b : Prog.t) :: _ -> b.first - Prog.last r > 2 * w
           | [] -> true)
        && apart rest
    | [] -> true
  in
  let ghost =
    if apart set then begin
      let wide, narrow = List.partition (fun (r : Prog.t) -> r.width >= w) set in
      let widened =
        List.map
          (fun (r : Prog.t) ->
            Prog.make ~first:(Safe.add r.first (-w)) ~width:(r.width + (2 * w))
              ~stride:(if r.count = 1 then 0 else r.stride)
              ~count:r.count)
          wide
      in
      List.fold_left Safe.add (hits l ~a widened - owned)
        (if narrow = [] then []
         else
           [
             hits l ~a narrow;
             hits l ~a:(Safe.add a (-w)) narrow;
             hits l ~a:(Safe.add a w) narrow;
           ])
    end
    else
      List.fold_left
        (fun acc (sign, zone) -> Safe.add acc (sign * hits l ~a zone))
        0 (ghost ~w set)
  in
  (owned, ghost)

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
     together: each step ends where either map's run ends.  A map's
     run end and owner are recomputed only once the walk leaves its
     current run. *)
  let segments a b ~lo ~hi f =
    if a.h > 0 && a.block > 0 && b.h > 0 && b.block > 0 then begin
      let x = ref lo and ea = ref (lo - 1) and pa = ref 0 in
      let eb = ref (lo - 1) and pb = ref 0 in
      while !x <= hi do
        if !ea < !x then begin
          ea := run_end a ~hi !x;
          pa := owner a !x
        end;
        if !eb < !x then begin
          eb := run_end b ~hi !x;
          pb := owner b !x
        end;
        let e = min !ea !eb in
        f !x e !pa !pb;
        x := e + 1
      done
    end

  (* Without a period the map is [rel / block mod h] from the mirror's
     end on; with one it repeats per cell. *)
  let repeats o =
    match (o.period, o.mirror) with
    | Some d, _ when d > 0 -> (o.base, d)
    | _, Some m when m > 0 -> (Safe.add o.base m, Safe.mul o.block o.h)
    | _ -> (o.base, Safe.mul o.block o.h)

  (* One processor's set in closed form.  Above [base] the owner only
     depends on the fold coordinate [f] of [rel] (period cell, then
     mirror), and [f]'s owner is [f / block mod h]: the set is the
     blocks [k*block .. k*block+block-1] with [k mod h = p] - one
     progression of stride [block * h] per monotone piece (the
     ascending side of the mirror and the unmirrored rest read
     forwards, its descending side backwards), less the clipped end
     blocks - and the pieces of a period cell repeat per cell: a cell's
     progression of [K] blocks over [J] whole cells is [min K J]
     progressions.  Below [base] every address belongs to processor
     0. *)
  let set o ~p ~lo ~hi =
    let b = o.block and h = o.h in
    let t = Safe.mul b h in
    let out = ref [] in
    (* A progression starting right after the last one emitted
       touches it: the two touching blocks become one. *)
    let emit (r : Prog.t) =
      match !out with
      | (q : Prog.t) :: rest when Prog.last q + 1 = r.first ->
          let qk = q.count - 1 and lo = Prog.start q (q.count - 1) in
          let rest =
            if qk > 0 then Prog.make ~first:q.first ~width:q.width ~stride:q.stride ~count:qk :: rest
            else rest
          in
          let rest = Prog.block ~lo ~hi:(Prog.start r 0 + r.width - 1) :: rest in
          out :=
            if r.count > 1 then
              Prog.make ~first:(Prog.start r 1) ~width:r.width ~stride:r.stride
                ~count:(r.count - 1)
              :: rest
            else rest
      | _ -> out := r :: !out
    in
    (* [p]'s blocks of the fold range [clo..chi], as progressions of
       the fold, passed to [f]. *)
    let blocks ~clo ~chi f =
      if clo <= chi then begin
        let k0 = clo / b and k1 = chi / b in
        let k0 = k0 + ((((p - k0) mod h) + h) mod h)
        and k1 = k1 - ((((k1 - p) mod h) + h) mod h) in
        if k0 <= k1 then
          List.iter f
            (Prog.clip
               (Prog.make ~first:(k0 * b) ~width:b ~stride:t ~count:(((k1 - k0) / h) + 1))
               ~lo:clo ~hi:chi)
      end
    in
    (* [p]'s addresses of one cell's fold range [a..b'] (relative to
       the cell start [at]), clipped to [lo..hi]; [f] receives them as
       progressions of addresses. *)
    let cell ~at ~a ~b:b' f =
      let a = max a (Safe.add lo (-at)) and b' = min b' (Safe.add hi (-at)) in
      let m0 =
        match o.mirror with
        | Some m when m > 0 ->
            let half = (m - 1) / 2 in
            blocks ~clo:a ~chi:(min b' half) (fun r -> f (Prog.shift r at));
            let rlo = max a (half + 1) and rhi = min b' (m - 1) in
            blocks ~clo:(m - 1 - rhi) ~chi:(m - 1 - rlo) (fun r ->
                f { r with first = Safe.add at (m - 1 - Prog.last r) });
            m
        | _ -> 0
      in
      blocks ~clo:(max a m0) ~chi:b' (fun r -> f (Prog.shift r at))
    in
    if lo <= hi then begin
      if h = 1 then emit (Prog.block ~lo ~hi)
      else begin
        if p = 0 && lo < o.base then emit (Prog.block ~lo ~hi:(min hi (o.base - 1)));
        if hi >= o.base then
          match o.period with
          | Some d when d > 0 ->
              let rlo = Safe.add (max lo o.base) (-o.base)
              and rhi = Safe.add hi (-o.base) in
              let j0 = rlo / d and j1 = rhi / d in
              let at j = Safe.add o.base (Safe.mul j d) in
              cell ~at:(at j0) ~a:0 ~b:(d - 1) emit;
              (* the whole cells between repeat the first one's pieces *)
              let cells = j1 - j0 - 1 in
              if cells > 0 then
                cell ~at:(at (j0 + 1)) ~a:0 ~b:(d - 1) (fun (r : Prog.t) ->
                    if r.count = 1 then
                      emit (Prog.make ~first:r.first ~width:r.width ~stride:d ~count:cells)
                    else if cells <= r.count then
                      for j = 0 to cells - 1 do
                        emit (Prog.shift r (Safe.mul j d))
                      done
                    else
                      for k = 0 to r.count - 1 do
                        emit
                          (Prog.make ~first:(Prog.start r k) ~width:r.width ~stride:d
                             ~count:cells)
                      done);
              if j1 > j0 then cell ~at:(at j1) ~a:0 ~b:(d - 1) emit
          | _ -> cell ~at:o.base ~a:0 ~b:max_int emit
      end
    end;
    let rec ascending = function
      | (a : Prog.t) :: ((b : Prog.t) :: _ as rest) -> a.first > b.first && ascending rest
      | _ -> true
    in
    if ascending !out then List.rev !out
    else List.sort (fun (x : Prog.t) (y : Prog.t) -> compare x.first y.first) !out
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
