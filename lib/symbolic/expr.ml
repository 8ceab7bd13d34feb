(* Hash-consed symbolic expressions.  Every [t] is interned: the [node]
   (canonical sum-of-monomials payload) lives in a domain-local table
   keyed by shallow structure, so within one intern generation two
   structurally equal expressions are the *same* record.  [equal] is a
   physical check with a hash-gated structural fallback (the fallback
   only fires for duplicates across generations or domains, e.g.
   registry programs built before an [intern_reset] or on the domain
   that spawned a batch job); [compare] keeps the exact ordering of the
   pre-interning structural compare so every sorted artifact (symmetry
   distance lists, golden snapshots) is byte-identical to before. *)

type t = { hash : int; node : node }

and node = (mono * Qnum.t) list
and mono = (atom * int) list

and atom =
  | Var of string
  | Pow2 of t
  | Floor_div of t * t
  | Ceil_div of t * t
  | Opaque_div of t * t

exception Non_integral of string

let digest e = e.hash

(* ------------------------------------------------------------------ *)
(* Hashing: structural and bottom-up (children contribute their cached
   [hash] field), so a digest is deterministic across processes and
   intern generations - it depends only on the mathematical term, never
   on construction order. *)

let mix h k = (((h * 0x01000193) lxor k) land max_int : int)

let hash_atom = function
  | Var v -> mix 3 (Hashtbl.hash v)
  | Pow2 e -> mix 5 e.hash
  | Floor_div (a, b) -> mix 7 (mix a.hash b.hash)
  | Ceil_div (a, b) -> mix 11 (mix a.hash b.hash)
  | Opaque_div (a, b) -> mix 13 (mix a.hash b.hash)

let hash_mono (m : mono) =
  List.fold_left (fun h (a, k) -> mix (mix h (hash_atom a)) k) 17 m

let hash_node (n : node) =
  List.fold_left (fun h (m, c) -> mix (mix h (hash_mono m)) (Hashtbl.hash c)) 19 n

(* ------------------------------------------------------------------ *)
(* Ordering.  [compare] replicates the pre-interning [Stdlib.compare]
   order on the underlying structure (constructor declaration order,
   lexicographic lists, num-then-den on rationals) but short-circuits on
   physical equality at every node, which is the overwhelmingly common
   case once terms are interned. *)

let compare_q (a : Qnum.t) (b : Qnum.t) =
  let c = Int.compare a.Qnum.num b.Qnum.num in
  if c <> 0 then c else Int.compare a.Qnum.den b.Qnum.den

let rec compare a b = if a == b then 0 else compare_node a.node b.node

and compare_node (a : node) (b : node) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ma, ca) :: ta, (mb, cb) :: tb ->
      let c = compare_mono ma mb in
      if c <> 0 then c
      else
        let c = compare_q ca cb in
        if c <> 0 then c else compare_node ta tb

and compare_mono (a : mono) (b : mono) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (aa, ka) :: ta, (ab, kb) :: tb ->
      let c = compare_atom aa ab in
      if c <> 0 then c
      else
        let c = Int.compare ka kb in
        if c <> 0 then c else compare_mono ta tb

and compare_atom (a : atom) (b : atom) =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Pow2 x, Pow2 y -> compare x y
  | Pow2 _, _ -> -1
  | _, Pow2 _ -> 1
  | Floor_div (x1, y1), Floor_div (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
  | Floor_div _, _ -> -1
  | _, Floor_div _ -> 1
  | Ceil_div (x1, y1), Ceil_div (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
  | Ceil_div _, _ -> -1
  | _, Ceil_div _ -> 1
  | Opaque_div (x1, y1), Opaque_div (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2

let equal a b = a == b || (a.hash = b.hash && compare_node a.node b.node = 0)
let equal_atom a b = compare_atom a b = 0

(* Reference ordering for the test suite: the same structural walk with
   no physical shortcuts anywhere.  [compare]/[equal] must agree with it
   on every input - qcheck pins that down. *)
let rec structural_compare a b = s_node a.node b.node

and s_node (a : node) (b : node) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ma, ca) :: ta, (mb, cb) :: tb ->
      let c = s_mono ma mb in
      if c <> 0 then c
      else
        let c = compare_q ca cb in
        if c <> 0 then c else s_node ta tb

and s_mono (a : mono) (b : mono) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (aa, ka) :: ta, (ab, kb) :: tb ->
      let c = s_atom aa ab in
      if c <> 0 then c
      else
        let c = Int.compare ka kb in
        if c <> 0 then c else s_mono ta tb

and s_atom (a : atom) (b : atom) =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Pow2 x, Pow2 y -> structural_compare x y
  | Pow2 _, _ -> -1
  | _, Pow2 _ -> 1
  | Floor_div (x1, y1), Floor_div (x2, y2) ->
      let c = structural_compare x1 x2 in
      if c <> 0 then c else structural_compare y1 y2
  | Floor_div _, _ -> -1
  | _, Floor_div _ -> 1
  | Ceil_div (x1, y1), Ceil_div (x2, y2) ->
      let c = structural_compare x1 x2 in
      if c <> 0 then c else structural_compare y1 y2
  | Ceil_div _, _ -> -1
  | _, Ceil_div _ -> 1
  | Opaque_div (x1, y1), Opaque_div (x2, y2) ->
      let c = structural_compare x1 x2 in
      if c <> 0 then c else structural_compare y1 y2

let structural_equal a b = structural_compare a b = 0

(* ------------------------------------------------------------------ *)
(* The intern table. *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = node

  (* Shallow in spirit: children are compared through [compare], which
     physical-shortcuts on same-generation interned subterms. *)
  let equal a b = compare_node a b = 0
  let hash = hash_node
end)

let intern_stats = Metrics.cache "expr.intern"
let norm_count = Metrics.counter "expr.norm"

(* The module-level constants, filled in below once they exist: every
   fresh table holds them, so they keep their canonical identity on
   every domain and after [intern_reset]. *)
let canonical : t list ref = ref []

let seeded () =
  let table = Tbl.create 4096 in
  List.iter (fun e -> Tbl.replace table e.node e) !canonical;
  table

(* The calling domain's table, with its intern and normalization
   counts at hand. *)
type interns = { mutable table : t Tbl.t; stats : Metrics.local; norms : Metrics.local }

let interns =
  Domain.DLS.new_key (fun () ->
      {
        table = seeded ();
        stats = Metrics.local_cache intern_stats;
        norms = Metrics.local_counter norm_count;
      })

let intern (node : node) : t =
  let st = Domain.DLS.get interns in
  match Tbl.find_opt st.table node with
  | Some e ->
      Metrics.hit_local st.stats;
      e
  | None ->
      Metrics.miss_local st.stats;
      let e = { hash = hash_node node; node } in
      Tbl.add st.table node e;
      e

let intern_size () = Tbl.length (Domain.DLS.get interns).table

(* ------------------------------------------------------------------ *)
(* Constructors.  The algebra below works on raw [node] lists and
   interns at the public boundary. *)

let zero : t = intern []
let q c : t = if Qnum.is_zero c then zero else intern [ ([], c) ]
let int n = q (Qnum.of_int n)
let one = int 1
let var v : t = intern [ ([ (Var v, 1) ], Qnum.one) ]
let is_zero e = match e.node with [] -> true | _ -> false

let () = canonical := [ zero; one ]

(* [intern_reset] replaces the calling domain's table (so a profiled
   run starts with a bounded, history-free intern state).  Expressions
   created before the reset coexist with those created after:
   [equal]/[compare] fall back to structure for such cross-generation
   duplicates. *)
let intern_reset () = (Domain.DLS.get interns).table <- seeded ()

let to_q e =
  match e.node with
  | [] -> Some Qnum.zero
  | [ ([], c) ] -> Some c
  | _ -> None

let to_int e =
  match to_q e with
  | Some c when Qnum.is_integer c -> Some (Qnum.to_int c)
  | _ -> None

let const_part e =
  match List.assoc_opt [] e.node with Some c -> c | None -> Qnum.zero

(* Merge two sorted term lists, combining coefficients. *)
let add_n (a : node) (b : node) : node =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (ma, ca) :: ta, (mb, cb) :: tb ->
        let c = compare_mono ma mb in
        if c < 0 then (ma, ca) :: go ta b
        else if c > 0 then (mb, cb) :: go a tb
        else
          let s = Qnum.add ca cb in
          if Qnum.is_zero s then go ta tb else (ma, s) :: go ta tb
  in
  go a b

let scale_n c (e : node) : node =
  if Qnum.is_zero c then [] else List.map (fun (m, k) -> (m, Qnum.mul c k)) e

let add a b = intern (add_n a.node b.node)
let scale c e = intern (scale_n c e.node)
let neg e = scale Qnum.minus_one e
let sub a b = add a (neg b)

(* [split_const e] = (constant integer part, residue) used to normalize
   Pow2 exponents: 2^(L-1) --> (1/2) * 2^L. Only the integer part of the
   constant is extracted so exponents stay integral. *)
let split_const (e : node) : int * node =
  let c = match List.assoc_opt [] e with Some c -> c | None -> Qnum.zero in
  if Qnum.is_zero c then (0, e)
  else
    let k = Qnum.floor c in
    if k = 0 then (0, e) else (k, add_n e [ ([], Qnum.of_int (-k)) ])

(* Build a normalized monomial*coefficient from a raw atom^exp listing.
   All Pow2 atoms are fused: their exponents are summed (weighted by the
   integer power) and any constant part of the sum moves into the
   coefficient. *)
let norm_factors (factors : (atom * int) list) (coeff : Qnum.t) : node =
  Metrics.incr_local (Domain.DLS.get interns).norms;
  let pow2_exp = ref [] in
  let others = ref [] in
  List.iter
    (fun (a, k) ->
      if k <> 0 then
        match a with
        | Pow2 e -> pow2_exp := add_n !pow2_exp (scale_n (Qnum.of_int k) e.node)
        | a -> others := (a, k) :: !others)
    factors;
  let kconst, residue = split_const !pow2_exp in
  let coeff = Qnum.mul coeff (Qnum.pow2 kconst) in
  let others =
    match residue with
    | [] -> !others
    | _ -> (Pow2 (intern residue), 1) :: !others
  in
  (* Combine duplicate atoms by summing exponents; the factor lists are
     tiny, so an association list with robust atom equality beats a
     polymorphic hash table (which could miss cross-generation
     duplicates). *)
  let combined = ref [] in
  List.iter
    (fun (a, k) ->
      match List.find_opt (fun (a', _) -> equal_atom a a') !combined with
      | Some (_, r) -> r := !r + k
      | None -> combined := (a, ref k) :: !combined)
    others;
  let mono =
    List.filter_map (fun (a, r) -> if !r = 0 then None else Some (a, !r))
      (List.rev !combined)
  in
  let mono = List.sort (fun (a, _) (b, _) -> compare_atom a b) mono in
  if Qnum.is_zero coeff then [] else [ (mono, coeff) ]

let mul_term (ma, ca) (mb, cb) : node = norm_factors (ma @ mb) (Qnum.mul ca cb)

let mul_n (a : node) (b : node) : node =
  List.fold_left
    (fun acc ta ->
      List.fold_left (fun acc tb -> add_n acc (mul_term ta tb)) acc b)
    [] a

let mul a b = intern (mul_n a.node b.node)
let prod es = List.fold_left mul one es

let pow2 (e : t) : t =
  match to_q e with
  | Some c when Qnum.is_integer c -> q (Qnum.pow2 (Qnum.to_int c))
  | _ -> intern (norm_factors [ (Pow2 e, 1) ] Qnum.one)

(* Divide term-wise by a single monomial: subtract exponents. *)
let div_by_mono (e : node) (dm : mono) (dc : Qnum.t) : node =
  let inv_factors = List.map (fun (a, k) -> (a, -k)) dm in
  List.fold_left
    (fun acc (m, c) ->
      add_n acc (norm_factors (m @ inv_factors) (Qnum.div c dc)))
    [] e

let div (a : t) (b : t) : t =
  match b.node with
  | [] -> raise Qnum.Division_by_zero
  | [ (dm, dc) ] -> intern (div_by_mono a.node dm dc)
  | _ ->
      if equal a b then one
      else if is_zero a then zero
      else intern (norm_factors [ (Opaque_div (a, b), 1) ] Qnum.one)

(* An expression is provably integer-valued when every coefficient is an
   integer and every atom is integer-valued with non-negative exponent.
   Variables are integers by construction (loop indices / parameters);
   Pow2 is integral only for provably non-negative exponents, which we
   cannot see locally, so Pow2 atoms simply disqualify. *)
let provably_integral (e : node) =
  List.for_all
    (fun (m, c) ->
      Qnum.is_integer c
      && List.for_all
           (fun (a, k) ->
             k >= 0
             &&
             match a with Var _ | Floor_div _ | Ceil_div _ -> true | _ -> false)
           m)
    e

let has_opaque (e : node) =
  List.exists
    (fun (m, _) ->
      List.exists (fun (a, _) -> match a with Opaque_div _ -> true | _ -> false) m)
    e

let floor_div (a : t) (b : t) : t =
  match (to_q a, to_q b) with
  | Some ca, Some cb when not (Qnum.is_zero cb) ->
      int (Qnum.floor (Qnum.div ca cb))
  | _, Some cb when Qnum.equal cb Qnum.one -> a
  | _ ->
      let e = div a b in
      if (not (has_opaque e.node)) && provably_integral e.node then e
      else intern (norm_factors [ (Floor_div (a, b), 1) ] Qnum.one)

let ceil_div (a : t) (b : t) : t =
  match (to_q a, to_q b) with
  | Some ca, Some cb when not (Qnum.is_zero cb) ->
      int (Qnum.ceil (Qnum.div ca cb))
  | _, Some cb when Qnum.equal cb Qnum.one -> a
  | _ ->
      let e = div a b in
      if (not (has_opaque e.node)) && provably_integral e.node then e
      else intern (norm_factors [ (Ceil_div (a, b), 1) ] Qnum.one)

let rec vars_atom acc = function
  | Var v -> v :: acc
  | Pow2 e -> vars_node acc e.node
  | Floor_div (a, b) | Ceil_div (a, b) | Opaque_div (a, b) ->
      vars_node (vars_node acc a.node) b.node

and vars_node acc (e : node) =
  List.fold_left
    (fun acc (m, _) -> List.fold_left (fun acc (a, _) -> vars_atom acc a) acc m)
    acc e

let vars e = List.sort_uniq String.compare (vars_node [] e.node)
let mem_var v e = List.mem v (vars e)

(* Rebuild an expression, mapping variables through [f]. *)
let rec map_vars (f : string -> t) (e : t) : t =
  List.fold_left
    (fun acc (m, c) ->
      let term =
        List.fold_left (fun acc (a, k) -> mul acc (atom_power f a k)) (q c) m
      in
      add acc term)
    zero e.node

and atom_power f a k : t =
  let base =
    match a with
    | Var v -> f v
    | Pow2 e -> pow2 (map_vars f e)
    | Floor_div (x, y) -> floor_div (map_vars f x) (map_vars f y)
    | Ceil_div (x, y) -> ceil_div (map_vars f x) (map_vars f y)
    | Opaque_div (x, y) -> div (map_vars f x) (map_vars f y)
  in
  if k >= 0 then
    let rec pow acc n = if n = 0 then acc else pow (mul acc base) (n - 1) in
    pow one k
  else
    (* Negative power: divide 1 by base^|k|. *)
    let rec pow acc n = if n = 0 then acc else pow (mul acc base) (n - 1) in
    div one (pow one (-k))

let subst v by e = map_vars (fun w -> if String.equal w v then by else var w) e

let subst_env bindings e =
  map_vars
    (fun w -> match List.assoc_opt w bindings with Some b -> b | None -> var w)
    e

let linear_in v (e : t) =
  let uses_v_atom a =
    List.mem v (List.sort_uniq String.compare (vars_atom [] a))
  in
  let rec go a b = function
    | [] -> Some (intern a, intern b)
    | (m, c) :: rest -> (
        let v_factors, others =
          List.partition (fun (at, _) -> uses_v_atom at) m
        in
        match v_factors with
        | [] -> go a (add_n b [ (m, c) ]) rest
        | [ (Var _, 1) ] -> go (add_n a [ (others, c) ]) b rest
        | _ -> None)
  in
  go [] [] e.node

(* ------------------------------------------------------------------ *)
(* Evaluation.  [compile] resolves every variable once and returns a
   closure over an [int array] row; [eval] is the same compiler's exact
   path applied once.  One evaluation order serves both paths:
   - the terms of a sum left to right, each added to the running sum
     ([Qnum.add acc term]) once the term is known;
   - a term starts from its coefficient and multiplies in its factors
     left to right, each factor's value computed first;
   - [base^k] multiplies [k] copies of [base] into [1], and a negative
     [k] inverts that product;
   - a division evaluates its divisor before its dividend.

   The native path runs this order in machine ints, through the checked
   [Qnum.mul_int]/[Qnum.add_int] that [Qnum.mul]/[Qnum.add] reduce to on
   integers, so it raises [Overflow] at the same operation.  Whatever
   needs a rational - a fractional coefficient, a negative exponent, a
   negative [Pow2] exponent, an [Opaque_div] - is evaluated on the exact
   path, in the same order, and the native path continues only if the
   result is an integer; otherwise it raises [Rational] and the term,
   then the whole expression, is re-evaluated exactly.  Evaluation is
   pure, so re-evaluating from the start repeats the exact path's steps
   up to the same point: every value and every exception is the exact
   path's. *)

exception Unbound of string

type binding = Slot of int | Fixed of int | Free

(* The native path's signal that a value needs a rational.  Never
   escapes [compile]. *)
exception Rational

(* A closure built on first use.  Two domains forcing it at once both
   build it and one write wins; the closures are pure, so either will
   do (a [Lazy.t] would raise instead). *)
let on_demand build =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some f -> f
    | None ->
        let f = build () in
        cell := Some f;
        f

(* [var v] reads [v]'s value off a row.  [exact_*] compile the exact
   path. *)
let rec exact_node var (e : node) : int array -> Qnum.t =
  match Array.of_list (List.map (exact_term var) e) with
  | [||] -> fun _ -> Qnum.zero
  | [| t |] -> t
  | terms ->
      fun row ->
        let acc = ref (terms.(0) row) in
        for i = 1 to Array.length terms - 1 do
          let t = terms.(i) row in
          acc := Qnum.add !acc t
        done;
        !acc

and exact_term var ((m, c) : mono * Qnum.t) =
  let factors = Array.of_list (List.map (fun (a, k) -> exact_power var a k) m) in
  fun row ->
    let acc = ref c in
    for i = 0 to Array.length factors - 1 do
      let x = factors.(i) row in
      acc := Qnum.mul !acc x
    done;
    !acc

and exact_power var a k =
  let base = exact_atom var a in
  (* [1 * base] is [base] and cannot overflow. *)
  if k = 1 then base
  else fun row ->
    let b = base row in
    let rec pow acc n = if n = 0 then acc else pow (Qnum.mul acc b) (n - 1) in
    if k >= 0 then pow Qnum.one k else Qnum.inv (pow Qnum.one (-k))

and exact_atom var = function
  | Var v -> var v
  | Pow2 e ->
      let x = exact_node var e.node in
      fun row ->
        let x = x row in
        if not (Qnum.is_integer x) then raise (Non_integral "Pow2 exponent");
        Qnum.pow2 (Qnum.to_int x)
  | Floor_div (x, y) -> exact_quotient var x y (fun q -> Qnum.of_int (Qnum.floor q))
  | Ceil_div (x, y) -> exact_quotient var x y (fun q -> Qnum.of_int (Qnum.ceil q))
  | Opaque_div (x, y) -> exact_quotient var x y Fun.id

and exact_quotient var x y f =
  let x = exact_node var x.node and y = exact_node var y.node in
  fun row ->
    let d = y row in
    let n = x row in
    f (Qnum.div n d)

(* An exact closure, built on first use, whose value the native path
   continues with if it is an integer. *)
let via_exact build =
  let exact = on_demand build in
  fun row ->
    let q = exact () row in
    if Qnum.is_integer q then Qnum.to_int q else raise Rational

(* [floor n d] and [ceil n d] as the exact path computes them.  Away
   from [min_int] the exact path's quotient is the true one, as is the
   native quotient; at [min_int] the exact path's own arithmetic
   answers. *)
let floor_int n d =
  if d = 0 then raise Qnum.Division_by_zero
  else if n = min_int || d = min_int then Qnum.floor (Qnum.div (Qnum.of_int n) (Qnum.of_int d))
  else
    let q = n / d in
    if q * d = n || (n < 0) = (d < 0) then q else q - 1

let ceil_int n d =
  if d = 0 then raise Qnum.Division_by_zero
  else if n = min_int || d = min_int then Qnum.ceil (Qnum.div (Qnum.of_int n) (Qnum.of_int d))
  else
    let q = n / d in
    if q * d = n || (n < 0) <> (d < 0) then q else q + 1

(* The native path: [nat v] reads [v] as an int, [var v] as a rational
   for the exact fallbacks, which are built on first use. *)
let rec native_node nat var (e : node) : int array -> int =
  match Array.of_list (List.map (native_term nat var) e) with
  | [||] -> fun _ -> 0
  | [| t |] -> t
  | terms ->
      fun row ->
        let acc = ref (terms.(0) row) in
        for i = 1 to Array.length terms - 1 do
          let t = terms.(i) row in
          acc := Qnum.add_int !acc t
        done;
        !acc

and native_term nat var ((m, c) as term) =
  let fallback = via_exact (fun () -> exact_term var term) in
  if not (Qnum.is_integer c) then fallback
  else
    let c = Qnum.to_int c in
    let factors = Array.of_list (List.map (fun (a, k) -> native_power nat var a k) m) in
    fun row ->
      try
        let acc = ref c in
        for i = 0 to Array.length factors - 1 do
          let x = factors.(i) row in
          acc := Qnum.mul_int !acc x
        done;
        !acc
      with Rational -> fallback row

and native_power nat var a k =
  if k < 0 then via_exact (fun () -> exact_power var a k)
  else
    let base = native_atom nat var a in
    if k = 1 then base
    else fun row ->
      let b = base row in
      let rec pow acc n = if n = 0 then acc else pow (Qnum.mul_int acc b) (n - 1) in
      pow 1 k

and native_atom nat var = function
  | Var v -> nat v
  | Pow2 e ->
      let x = native_node nat var e.node in
      fun row ->
        let x = x row in
        if x > 61 then raise Qnum.Overflow else if x < 0 then raise Rational else 1 lsl x
  | Floor_div (x, y) -> native_quotient nat var x y floor_int
  | Ceil_div (x, y) -> native_quotient nat var x y ceil_int
  | Opaque_div _ as a -> via_exact (fun () -> exact_atom var a)

and native_quotient nat var x y f =
  let x = native_node nat var x.node and y = native_node nat var y.node in
  fun row ->
    let d = y row in
    let n = x row in
    f n d

let readers slot =
  let nat v =
    match slot v with
    | Slot j -> fun row -> row.(j)
    | Fixed n -> fun _ -> n
    | Free -> fun _ -> raise (Unbound v)
  in
  (nat, fun v -> let r = nat v in fun row -> Qnum.of_int (r row))

let non_integral v = Non_integral (Format.asprintf "value %a" Qnum.pp v)

(* The native closure, and the exact one on demand. *)
let paths slot (e : t) =
  let nat, var = readers slot in
  (native_node nat var e.node, on_demand (fun () -> exact_node var e.node))

let compile slot e =
  let native, exact = paths slot e in
  fun row -> match native row with x -> Qnum.of_int x | exception Rational -> exact () row

let compile_int slot e =
  let native, exact = paths slot e in
  fun row ->
    match native row with
    | x -> x
    | exception Rational ->
        let v = exact () row in
        if Qnum.is_integer v then Qnum.to_int v else raise (non_integral v)

let eval_exact lookup (e : t) = exact_node (fun v _ -> lookup v) e.node [||]

(* One evaluation without closures: [compile_int]'s native path walked
   straight off the node, raising [Rational] where that path would
   call its exact fallback. *)
let rec walk_node lookup = function
  | [] -> 0
  | t :: rest ->
      List.fold_left (fun acc t -> Qnum.add_int acc (walk_term lookup t)) (walk_term lookup t) rest

and walk_term lookup (m, c) =
  if not (Qnum.is_integer c) then raise Rational
  else List.fold_left (fun acc (a, k) -> Qnum.mul_int acc (walk_power lookup a k)) (Qnum.to_int c) m

and walk_power lookup a k =
  if k < 0 then raise Rational
  else
    let b = walk_atom lookup a in
    if k = 1 then b
    else
      let rec pow acc n = if n = 0 then acc else pow (Qnum.mul_int acc b) (n - 1) in
      pow 1 k

and walk_atom lookup = function
  | Var v ->
      let x = lookup v in
      if Qnum.is_integer x then Qnum.to_int x else raise Rational
  | Pow2 e ->
      let x = walk_node lookup e.node in
      if x > 61 then raise Qnum.Overflow else if x < 0 then raise Rational else 1 lsl x
  | Floor_div (x, y) -> walk_quotient lookup x y floor_int
  | Ceil_div (x, y) -> walk_quotient lookup x y ceil_int
  | Opaque_div _ -> raise Rational

and walk_quotient lookup x y f =
  let d = walk_node lookup y.node in
  let n = walk_node lookup x.node in
  f n d

let eval lookup (e : t) =
  match walk_node lookup e.node with
  | x -> Qnum.of_int x
  | exception Rational -> eval_exact lookup e

let eval_int lookup (e : t) =
  match walk_node lookup e.node with
  | x -> x
  | exception Rational ->
      let v = eval_exact lookup e in
      if Qnum.is_integer v then Qnum.to_int v else raise (non_integral v)

let rec pp ppf e = pp_node ppf e.node

and pp_atom ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Pow2 e -> Format.fprintf ppf "2^(%a)" pp e
  | Floor_div (a, b) -> Format.fprintf ppf "floor(%a / %a)" pp a pp b
  | Ceil_div (a, b) -> Format.fprintf ppf "ceil(%a / %a)" pp a pp b
  | Opaque_div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b

and pp_mono ppf (m : mono) =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "*")
    (fun ppf (a, k) ->
      if k = 1 then pp_atom ppf a else Format.fprintf ppf "%a^%d" pp_atom a k)
    ppf m

and pp_node ppf (e : node) =
  match e with
  | [] -> Format.pp_print_string ppf "0"
  | terms ->
      List.iteri
        (fun i (m, c) ->
          let neg = Qnum.sign c < 0 in
          if i = 0 then (if neg then Format.pp_print_string ppf "-")
          else Format.pp_print_string ppf (if neg then " - " else " + ");
          let c = Qnum.abs c in
          match m with
          | [] -> Qnum.pp ppf c
          | _ ->
              if not (Qnum.equal c Qnum.one) then
                Format.fprintf ppf "%a*" Qnum.pp c;
              pp_mono ppf m)
        terms

let to_string e = Format.asprintf "%a" pp e
