(* The unified artifact cache: one digest-keyed, bounded store family
   replacing the ad-hoc memo Hashtbls that used to live in Range, Probe,
   Phase, Region, Symmetry, Lcg and Solve.

   Keys are small trees whose leaves are ints, strings and *interned*
   expressions, so key equality is O(key size) with O(1) expression
   leaves, and key hashing reuses the expressions' precomputed
   structural digests.  Collisions are therefore impossible by
   construction - the digest only accelerates bucketing.

   The cache serves one probe-seed scope.  There is one invalidation
   rule: [clear_all] drops every store, and [Probe.with_seed] calls it
   on entry and exit, so no value derived under one probe seed is read
   under another. *)

module Key = struct
  type t = I of int | S of string | E of Expr.t | L of int * t list

  let mix h k = (((h * 0x01000193) lxor k) land max_int : int)

  let hash = function
    | I n -> mix 3 n
    | S s -> mix 5 (Hashtbl.hash s)
    | E e -> mix 7 (Expr.digest e)
    | L (h, _) -> h

  let int n = I n
  let bool b = I (if b then 1 else 0)
  let str s = S s
  let expr e = E e
  let list l = L (List.fold_left (fun h k -> mix h (hash k)) 11 l, l)
  let opt f = function None -> I 0 | Some x -> list [ f x ]

  let rec equal a b =
    match (a, b) with
    | I a, I b -> Int.equal a b
    | S a, S b -> String.equal a b
    | E a, E b -> Expr.equal a b
    | L (ha, la), L (hb, lb) -> Int.equal ha hb && list_equal la lb
    | (I _ | S _ | E _ | L _), _ -> false

  and list_equal a b =
    match (a, b) with
    | [], [] -> true
    | x :: xs, y :: ys -> equal x y && list_equal xs ys
    | _, _ -> false
end

module KT = Hashtbl.Make (Key)

(* Every store's bound.  The largest store measured (probe.memo in one
   fuzz program's battery) peaks at 1,353 entries; the runs that analyse
   many programs without a clear (sweep, lint --all, the reproduction
   harness) stay below 600 in every store.  DESIGN.md section 14.3 has
   the numbers.  A store that reaches the bound is dropped wholesale
   and refills. *)
let max_entries = 4_096

type 'v store = { tbl : 'v KT.t; cells : Metrics.cache }

(* The clear closure of every store created anywhere in the process. *)
let clearers : (unit -> unit) list ref = ref []

let store name =
  let s = { tbl = KT.create 256; cells = Metrics.cache name } in
  clearers := (fun () -> KT.reset s.tbl) :: !clearers;
  s

let find s key compute =
  match KT.find_opt s.tbl key with
  | Some v ->
      Metrics.hit s.cells;
      v
  | None ->
      Metrics.miss s.cells;
      let v = compute () in
      if KT.length s.tbl >= max_entries then KT.reset s.tbl;
      KT.replace s.tbl key v;
      v

let clear_all () = List.iter (fun clear -> clear ()) !clearers
