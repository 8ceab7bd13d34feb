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
   under another.  The stores are domain-local: each domain fills its
   own tables, and [clear_all] drops the calling domain's. *)

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

  (* A key kept by its owner (an assumption set's) is found by its
     physical self. *)
  let rec equal a b =
    a == b
    ||
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

(* Every store's bound.  The largest store measured (the former
   probe.memo, in one fuzz program's battery) peaked at 1,353 entries;
   the runs that analyse many programs without a clear (sweep, lint
   --all, the reproduction harness) stay below 600 in every store.
   DESIGN.md section 14.3 has the numbers.  A store that reaches the
   bound is dropped wholesale and refills. *)
let max_entries = 4_096

(* A store is the calling domain's table and its hit/miss counts. *)
type 'v local = { tbl : 'v KT.t; stats : Metrics.local }
type 'v store = 'v local Domain.DLS.key

(* The clear closure of every store, each acting on the calling
   domain's table. *)
let clearers : (unit -> unit) list Atomic.t = Atomic.make []

let store name =
  let cells = Metrics.cache name in
  let s =
    Domain.DLS.new_key (fun () -> { tbl = KT.create 256; stats = Metrics.local_cache cells })
  in
  let rec register clear =
    let l = Atomic.get clearers in
    if not (Atomic.compare_and_set clearers l (clear :: l)) then register clear
  in
  register (fun () -> KT.reset (Domain.DLS.get s).tbl);
  s

let find s key compute =
  let { tbl; stats } = Domain.DLS.get s in
  match KT.find_opt tbl key with
  | Some v ->
      Metrics.hit_local stats;
      v
  | None ->
      Metrics.miss_local stats;
      let v = compute () in
      if KT.length tbl >= max_entries then KT.reset tbl;
      KT.replace tbl key v;
      v

let clear_all () = List.iter (fun clear -> clear ()) (Atomic.get clearers)
