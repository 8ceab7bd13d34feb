(* Tests for the symbolic expression substrate: Qnum, Expr normal form,
   Probe and Range, exercised on the paper's own TFFT2 expressions. *)

open Symbolic

let expr = Alcotest.testable Expr.pp Expr.equal

let qnum = Alcotest.testable Qnum.pp Qnum.equal

(* Shorthand *)
let v = Expr.var
let i = Expr.int
let ( + ) = Expr.add
let ( - ) = Expr.sub
let ( * ) = Expr.mul
let ( / ) = Expr.div
let p2 = Expr.pow2

(* ------------------------------------------------------------------ *)
(* Qnum *)

let test_qnum_basic () =
  Alcotest.(check qnum) "1/2 + 1/3" (Qnum.make 5 6) (Qnum.add (Qnum.make 1 2) (Qnum.make 1 3));
  Alcotest.(check qnum) "normalization" (Qnum.make 1 2) (Qnum.make (-3) (-6));
  Alcotest.(check int) "floor -7/2" (-4) (Qnum.floor (Qnum.make (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Qnum.ceil (Qnum.make (-7) 2));
  Alcotest.(check int) "floor 7/2" 3 (Qnum.floor (Qnum.make 7 2));
  Alcotest.(check qnum) "pow2 -3" (Qnum.make 1 8) (Qnum.pow2 (-3));
  Alcotest.(check int) "compare" (-1) (Qnum.compare (Qnum.make 1 3) (Qnum.make 1 2))

let test_qnum_overflow () =
  Alcotest.check_raises "mul overflow" Qnum.Overflow (fun () ->
      ignore (Qnum.mul (Qnum.of_int max_int) (Qnum.of_int 3)));
  Alcotest.check_raises "div by zero" Qnum.Division_by_zero (fun () ->
      ignore (Qnum.make 1 0))

(* Saturation boundaries of the 63-bit integer representation: the
   largest power of two with an exactly-representable square-free
   numerator/denominator is 2^61; max_int itself is 2^62 - 1. *)
let test_qnum_boundaries () =
  Alcotest.(check qnum) "pow2 61" (Qnum.of_int (1 lsl 61)) (Qnum.pow2 61);
  Alcotest.(check qnum) "pow2 -61"
    (Qnum.make 1 (1 lsl 61))
    (Qnum.pow2 (-61));
  Alcotest.check_raises "pow2 62" Qnum.Overflow (fun () ->
      ignore (Qnum.pow2 62));
  Alcotest.check_raises "pow2 -62" Qnum.Overflow (fun () ->
      ignore (Qnum.pow2 (-62)));
  Alcotest.check_raises "add saturates" Qnum.Overflow (fun () ->
      ignore (Qnum.add (Qnum.of_int max_int) Qnum.one));
  Alcotest.check_raises "mul 2^31 * 2^31" Qnum.Overflow (fun () ->
      (* 2^62 exceeds max_int = 2^62 - 1 *)
      ignore (Qnum.mul (Qnum.of_int (1 lsl 31)) (Qnum.of_int (1 lsl 31))));
  (* differing signs cannot overflow *)
  Alcotest.(check qnum) "max_int + min_int" (Qnum.of_int (-1))
    (Qnum.add (Qnum.of_int max_int) (Qnum.of_int min_int));
  Alcotest.(check qnum) "2^30 * 2^31"
    (Qnum.of_int (1 lsl 61))
    (Qnum.mul (Qnum.of_int (1 lsl 30)) (Qnum.of_int (1 lsl 31)))

(* At [min_int] the 63-bit representation has no negation: every
   operation that would need one raises [Overflow] instead of wrapping
   back to [min_int]. *)
let test_qnum_min_int () =
  let open Stdlib in
  let overflows name f = Alcotest.check_raises name Qnum.Overflow (fun () -> ignore (f ())) in
  overflows "mul_int min_int (-1)" (fun () -> Qnum.mul_int min_int (-1));
  overflows "mul_int (-1) min_int" (fun () -> Qnum.mul_int (-1) min_int);
  overflows "mul min_int (-1)" (fun () -> Qnum.mul (Qnum.of_int min_int) Qnum.minus_one);
  overflows "neg min_int" (fun () -> Qnum.neg (Qnum.of_int min_int));
  overflows "abs min_int" (fun () -> Qnum.abs (Qnum.of_int min_int));
  overflows "make min_int (-1)" (fun () -> Qnum.make min_int (-1));
  overflows "make 1 min_int" (fun () -> Qnum.make 1 min_int);
  overflows "inv min_int" (fun () -> Qnum.inv (Qnum.of_int min_int));
  Alcotest.(check int) "mul_int min_int 1" min_int (Qnum.mul_int min_int 1);
  Alcotest.(check int) "mul_int 2^61 (-2)" min_int (Qnum.mul_int (1 lsl 61) (-2));
  Alcotest.(check int) "add_int min_int 0" min_int (Qnum.add_int min_int 0);
  overflows "add_int min_int (-1)" (fun () -> Qnum.add_int min_int (-1));
  Alcotest.(check qnum) "abs (min_int + 1)" (Qnum.of_int max_int) (Qnum.abs (Qnum.of_int (min_int + 1)));
  (* reduction by a gcd is never negative, so the denominator stays so *)
  let q = Qnum.make min_int 3 in
  Alcotest.(check (pair int int)) "min_int/3 reduced" (min_int, 3) (q.num, q.den);
  (* floor and ceil never form [-num + den - 1] *)
  Alcotest.(check int) "floor (-max_int/2)" (-(1 lsl 61)) (Qnum.floor (Qnum.make (-max_int) 2));
  Alcotest.(check int) "ceil (max_int/2)" (1 lsl 61) (Qnum.ceil (Qnum.make max_int 2));
  Alcotest.(check int) "floor (min_int/3)" (-1537228672809129302) (Qnum.floor q);
  Alcotest.(check int) "ceil (min_int/3)" (-1537228672809129301) (Qnum.ceil q);
  Alcotest.(check int) "ceil min_int" min_int (Qnum.ceil (Qnum.of_int min_int))

(* Regression: [compare] used to raise [Overflow] on rationals whose
   cross products exceed Stdlib.max_int.  It now cross-reduces by gcd (exact
   when that fits) and otherwise falls back to sign / floating-point
   comparison - a total order even at the representation boundary. *)
let test_qnum_compare_total () =
  let big = Qnum.of_int Stdlib.max_int in
  let near = Qnum.of_int Stdlib.(max_int - 1) in
  Alcotest.(check int) "Stdlib.max_int vs Stdlib.max_int-1" 1 (Qnum.compare big near);
  Alcotest.(check int) "Stdlib.max_int-1 vs Stdlib.max_int" (-1) (Qnum.compare near big);
  Alcotest.(check int) "Stdlib.max_int vs Stdlib.max_int" 0 (Qnum.compare big big);
  (* gcd cross-reduction: the naive cross products Stdlib.max_int * 3 and
     Stdlib.max_int * 2 overflow, but dividing out gcd(Stdlib.max_int, Stdlib.max_int)
     leaves the exact comparison 3 vs 2 *)
  Alcotest.(check int) "Stdlib.max_int/2 vs Stdlib.max_int/3" 1
    (Qnum.compare (Qnum.make Stdlib.max_int 2) (Qnum.make Stdlib.max_int 3));
  Alcotest.(check int) "Stdlib.max_int/3 vs Stdlib.max_int/3" 0
    (Qnum.compare (Qnum.make Stdlib.max_int 3) (Qnum.make Stdlib.max_int 3));
  (* opposite signs decide on sign alone, no products formed *)
  Alcotest.(check int) "-Stdlib.max_int vs Stdlib.max_int" (-1)
    (Qnum.compare (Qnum.of_int (- Stdlib.max_int)) big);
  (* coprime huge components (gcd(2^62-1, 2^61-1) = 1): the reduced
     cross products still overflow, so the float fallback decides
     ~2.0 vs ~0.5 *)
  let a = Qnum.make Stdlib.max_int Stdlib.((1 lsl 61) - 1) in
  let b = Qnum.make Stdlib.((1 lsl 61) - 1) Stdlib.max_int in
  Alcotest.(check int) "float fallback orders" 1 (Qnum.compare a b);
  Alcotest.(check int) "float fallback antisym" (-1) (Qnum.compare b a);
  (* min/max are built on compare and must not raise either *)
  Alcotest.(check qnum) "min near boundary" near (Qnum.min big near);
  Alcotest.(check qnum) "max near boundary" big (Qnum.max big near)

(* ------------------------------------------------------------------ *)
(* Expr normal form *)

let test_expr_ring () =
  Alcotest.(check expr) "x+y = y+x" (v "x" + v "y") (v "y" + v "x");
  Alcotest.(check expr) "(x+1)^2 expand"
    ((v "x" * v "x") + (i 2 * v "x") + i 1)
    ((v "x" + i 1) * (v "x" + i 1));
  Alcotest.(check expr) "x - x = 0" Expr.zero (v "x" - v "x");
  Alcotest.(check expr) "distribute"
    ((v "a" * v "c") + (v "b" * v "c"))
    ((v "a" + v "b") * v "c")

let test_expr_pow2 () =
  (* 2^(L-1) = (1/2) * 2^L *)
  Alcotest.(check expr) "2^(L-1)"
    (Expr.scale (Qnum.make 1 2) (p2 (v "L")))
    (p2 (v "L" - i 1));
  (* 2^L * 2^(-L) = 1 *)
  Alcotest.(check expr) "2^L * 2^-L" Expr.one (p2 (v "L") * p2 (i 0 - v "L"));
  (* 2^3 = 8 *)
  Alcotest.(check expr) "2^3" (i 8) (p2 (i 3));
  (* 2^(L-1) * 2^(1-L) = 1 *)
  Alcotest.(check expr) "cross" Expr.one (p2 (v "L" - i 1) * p2 (i 1 - v "L"));
  (* 2^(p-1)*J - J  vs (2^p - 2) * 2^-1 * J *)
  Alcotest.(check expr) "tfft2 alpha numerator"
    ((p2 (v "p" - i 1) * v "J") - v "J")
    (Expr.scale (Qnum.make 1 2) ((p2 (v "p") - i 2) * v "J"))

let test_expr_div () =
  Alcotest.(check expr) "x*y / y" (v "x") (v "x" * v "y" / v "y");
  Alcotest.(check expr) "monomial div with pow2"
    (p2 (v "p" - v "L") - p2 (i 1 - v "L"))
    (((p2 (v "p" - i 1) * v "J") - v "J") / (v "J" * p2 (v "L" - i 1)));
  (* multi-term divisor falls back to an opaque atom, but a/a = 1 *)
  Alcotest.(check expr) "self division" Expr.one ((v "x" + i 1) / (v "x" + i 1));
  Alcotest.(check bool) "opaque kept" false
    (Expr.is_zero ((v "x" + v "y") / (v "x" + i 1)))

let test_expr_floor_ceil () =
  Alcotest.(check expr) "floor 7/2" (i 3) (Expr.floor_div (i 7) (i 2));
  Alcotest.(check expr) "ceil 7/2" (i 4) (Expr.ceil_div (i 7) (i 2));
  Alcotest.(check expr) "exact poly quotient"
    (v "x" + i 1)
    (Expr.floor_div ((i 2 * v "x") + i 2) (i 2));
  (* ceil(x/H) stays symbolic *)
  let e = Expr.ceil_div (v "x") (v "H") in
  Alcotest.(check int) "ceil eval"
    3
    (Expr.eval_int (Env.lookup (Env.of_list [ ("x", 9); ("H", 4) ])) e)

let test_expr_subst () =
  (* phi = 2*P*I + 2^(L-1)*J + K; stride wrt L is J*2^(L-1) *)
  let phi = (i 2 * v "P" * v "I") + (p2 (v "L" - i 1) * v "J") + v "K" in
  let stride = Expr.subst "L" (v "L" + i 1) phi - phi in
  Alcotest.(check expr) "tfft2 stride_L" (v "J" * p2 (v "L" - i 1)) stride;
  let stride_i = Expr.subst "I" (v "I" + i 1) phi - phi in
  Alcotest.(check expr) "tfft2 stride_I" (i 2 * v "P") stride_i;
  Alcotest.(check expr) "subst into pow2" (p2 (v "x" + i 2) ) (Expr.subst "L" (v "x" + i 2) (p2 (v "L")))

let test_linear_in () =
  let e = (i 2 * v "P" * v "I") + (p2 (v "L") * v "J") in
  (match Expr.linear_in "I" e with
  | Some (a, b) ->
      Alcotest.(check expr) "coeff" (i 2 * v "P") a;
      Alcotest.(check expr) "rest" (p2 (v "L") * v "J") b
  | None -> Alcotest.fail "linear_in I");
  (match Expr.linear_in "L" e with
  | Some _ -> Alcotest.fail "L occurs inside pow2: nonlinear"
  | None -> ());
  match Expr.linear_in "x" (v "x" * v "x") with
  | Some _ -> Alcotest.fail "quadratic"
  | None -> ()

let test_eval () =
  let env = Env.of_list [ ("P", 8); ("I", 2); ("L", 3); ("J", 1); ("K", 2) ] in
  let phi = (i 2 * v "P" * v "I") + (p2 (v "L" - i 1) * v "J") + v "K" in
  Alcotest.(check int) "phi eval" 38 (Env.eval env phi);
  Alcotest.check_raises "non-integral"
    (Expr.Non_integral "value 1/2")
    (fun () -> ignore (Env.eval env (Expr.scale (Qnum.make 1 2) Expr.one)))

(* ------------------------------------------------------------------ *)
(* Probe *)

let tfft2_assume =
  Assume.of_list
    [
      ("p", Assume.Int_range (2, 6));
      ("q", Assume.Int_range (1, 5));
      ("P", Assume.Pow2_of "p");
      ("Q", Assume.Pow2_of "q");
      ("I", Assume.Expr_range (Expr.zero, v "Q" - i 1));
      ("L", Assume.Expr_range (i 1, v "p"));
      ("J", Assume.Expr_range (Expr.zero, (v "P" * p2 (i 0 - v "L")) - i 1));
      ("K", Assume.Expr_range (Expr.zero, p2 (v "L" - i 1) - i 1));
    ]

let test_probe_equal () =
  Probe.with_seed 42 (fun () ->
      (* (P-2)*2^-L + 1 equals 2^(p-L) - 2^(1-L) + 1 under P = 2^p *)
      let a = ((v "P" - i 2) * p2 (i 0 - v "L")) + i 1 in
      let b = p2 (v "p" - v "L") - p2 (i 1 - v "L") + i 1 in
      Alcotest.(check bool) "paper alpha2 forms" true (Probe.equal tfft2_assume a b);
      Alcotest.(check bool) "not equal" false
        (Probe.equal tfft2_assume a (b + i 1)))

let test_probe_sign_div () =
  Probe.with_seed 43 (fun () ->
      Alcotest.(check (option int)) "J*2^(L-1) nonneg" (Some 1)
        (Probe.sign tfft2_assume ((v "J" * p2 (v "L" - i 1)) + i 1));
      Alcotest.(check bool) "K bound lt P" true
        (Probe.lt tfft2_assume (v "K") (v "P"));
      Alcotest.(check bool) "2^(L-1) divides P/2... i.e. P/2 multiple" true
        (Probe.divides tfft2_assume (p2 (v "L" - i 1)) (v "P" * p2 (i 0 - v "L") * p2 (v "L" - i 1))))

(* Whether [e] is independent of [x] on every sample: [e] at up to
   five values of [x] from the low end of its range, everything else
   fixed, through [Probe.along]. *)
let constant_in asm x e =
  let open Stdlib in
  (not (Expr.mem_var x e))
  || Probe.along asm x e (fun lo hi at ->
         let reference = at lo in
         let steps = min 4 (hi - lo) in
         let rec check k = k > steps || (Qnum.equal (at (lo + k)) reference && check (k + 1)) in
         check 1)

let test_probe_constant_in () =
  Probe.with_seed 44 (fun () ->
      Alcotest.(check bool) "P/2 - 1 constant in L" true
        (constant_in tfft2_assume "L" ((v "P" / i 2) - i 1));
      Alcotest.(check bool) "2^L not constant in L" false
        (constant_in tfft2_assume "L" (p2 (v "L"))))

(* ------------------------------------------------------------------ *)
(* Range *)

let test_range_tfft2_reach () =
  Probe.with_seed 45 (fun () ->
      (* max over L,J,K of 2^(L-1)*J + K must be P/2 - 1: the key fact
         behind the paper's Fig. 3 coalescing chain. *)
      let e = (p2 (v "L" - i 1) * v "J") + v "K" in
      match Range.maximize tfft2_assume ~over:[ "L"; "J"; "K" ] e with
      | None -> Alcotest.fail "maximize failed"
      | Some m ->
          Alcotest.(check bool) "reach = P/2 - 1" true
            (Probe.equal tfft2_assume m ((v "P" / i 2) - i 1)))

let test_range_monotone () =
  Probe.with_seed 46 (fun () ->
      (match Range.monotonicity tfft2_assume "J" ((p2 (v "L" - i 1) * v "J") + v "K") with
      | `Inc -> ()
      | _ -> Alcotest.fail "J monotone inc");
      (match Range.monotonicity tfft2_assume "L" (p2 (i 0 - v "L")) with
      | `Dec -> ()
      | _ -> Alcotest.fail "2^-L dec");
      match Range.minimize tfft2_assume ~over:[ "K" ] (v "K" + i 5) with
      | Some m -> Alcotest.(check expr) "min K+5" (i 5) m
      | None -> Alcotest.fail "minimize failed")

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let arb_small_expr =
  (* Random expressions over x,y with small ints, built from +,-,*. *)
  let open QCheck.Gen in
  let leaf =
    oneof [ map Expr.int (int_range (-4) 4); oneofl [ v "x"; v "y" ] ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, map2 Expr.add (go (pred n)) (go (pred n)));
          (2, map2 Expr.mul (go (pred n)) (go (pred n)));
          (1, map2 Expr.sub (go (pred n)) (go (pred n)));
        ]
  in
  QCheck.make (go 4) ~print:Expr.to_string

let eval_xy ex ey e = Expr.eval (function
    | "x" -> Qnum.of_int ex
    | "y" -> Qnum.of_int ey
    | v -> failwith v) e

let prop_eval_homomorphic =
  QCheck.Test.make ~name:"normal form preserves value" ~count:300
    (QCheck.triple arb_small_expr (QCheck.int_range (-20) 20) (QCheck.int_range (-20) 20))
    (fun (e, ex, ey) ->
      (* Rebuilding the expression by substituting variables with
         constants must agree with direct evaluation. *)
      let direct = eval_xy ex ey e in
      let substituted =
        Expr.subst "x" (Expr.int ex) e |> Expr.subst "y" (Expr.int ey)
      in
      match Expr.to_q substituted with
      | Some c -> Qnum.equal c direct
      | None -> false)

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes structurally" ~count:200
    (QCheck.pair arb_small_expr arb_small_expr)
    (fun (a, b) -> Expr.equal (Expr.add a b) (Expr.add b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes structurally" ~count:200
    (QCheck.triple arb_small_expr arb_small_expr arb_small_expr)
    (fun (a, b, c) ->
      Expr.equal (Expr.mul a (Expr.add b c)) (Expr.add (Expr.mul a b) (Expr.mul a c)))

let prop_qnum_field =
  QCheck.Test.make ~name:"qnum field laws" ~count:500
    (QCheck.triple (QCheck.int_range (-50) 50) (QCheck.int_range 1 50) (QCheck.int_range (-50) 50))
    (fun (a, b, c) ->
      let x = Qnum.make a b and y = Qnum.make c b in
      Qnum.equal (Qnum.add x y) (Qnum.add y x)
      && Qnum.equal (Qnum.sub (Qnum.add x y) y) x
      && (Qnum.is_zero x || Qnum.equal (Qnum.div (Qnum.mul x y) x) y))

let test_range_mixed () =
  Probe.with_seed 48 (fun () ->
      (* v*(v-5) is not monotone over 0..6: elimination must refuse
         rather than return a wrong bound *)
      let asm =
        Assume.of_list [ ("v", Assume.Expr_range (i 0, i 6)) ]
      in
      let e = v "v" * (v "v" - i 5) in
      (match Range.monotonicity asm "v" e with
      | `Mixed -> ()
      | _ -> Alcotest.fail "expected mixed monotonicity");
      Alcotest.(check bool) "maximize refuses" true
        (Range.maximize asm ~over:[ "v" ] e = None));
  Probe.with_seed 49 (fun () ->
      (* ... but a monotone expression over the same domain succeeds *)
      let asm = Assume.of_list [ ("v", Assume.Expr_range (i 0, i 6)) ] in
      match Range.maximize asm ~over:[ "v" ] (v "v" * v "v") with
      | Some m -> Alcotest.(check expr) "36" (i 36) m
      | None -> Alcotest.fail "monotone square should maximize")

(* ------------------------------------------------------------------ *)
(* Edge cases *)

let test_expr_corner_cases () =
  (* floor/ceil with symbolic divisor stay symbolic but evaluate *)
  let e = Expr.floor_div (v "x" + i 3) (v "y") in
  let env = Env.of_list [ ("x", 7); ("y", 4) ] in
  Alcotest.(check int) "floor_div eval" 2 (Env.eval env e);
  let c = Expr.ceil_div (v "x" + i 3) (v "y") in
  Alcotest.(check int) "ceil_div eval" 3 (Env.eval env c);
  (* subst reaches inside floor/ceil atoms *)
  let e2 = Expr.subst "x" (i 9) e in
  Alcotest.(check int) "subst into floor" 3
    (Expr.eval_int (Env.lookup (Env.of_list [ ("y", 4) ])) e2);
  (* opaque division cancels syntactically equal args *)
  Alcotest.(check expr) "opaque self" Expr.one
    ((v "a" + v "b") / (v "a" + v "b"));
  (* negative power via division round trip *)
  let r = v "x" * (Expr.one / v "x") in
  Alcotest.(check expr) "x * 1/x" Expr.one r

(* ------------------------------------------------------------------ *)
(* Interning: physical sharing within a generation, stable digests and
   correct equality across an [intern_reset] generation boundary. *)

(* A term mixing every atom kind, rebuilt on demand so the same
   mathematical value can be constructed on either side of a reset. *)
let intern_specimen () =
  let n = v "n" and m = v "m" in
  (p2 n * Expr.floor_div m (i 3 + n)) + Expr.ceil_div (n * m) (i 5) - (m / i 2)

let test_intern_sharing () =
  let a = intern_specimen () and b = intern_specimen () in
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check int) "same digest" (Expr.digest a) (Expr.digest b);
  Alcotest.(check bool) "intern table non-empty" true
    (Expr.intern_size () > 0)

let test_intern_reset () =
  let a = intern_specimen () in
  let size_before = Expr.intern_size () in
  Expr.intern_reset ();
  Alcotest.(check bool) "table dropped" true
    (Expr.intern_size () < size_before);
  let b = intern_specimen () in
  Alcotest.(check bool) "fresh record after reset" true (not (a == b));
  (* identity survives the generation boundary *)
  Alcotest.(check bool) "equal across generations" true (Expr.equal a b);
  Alcotest.(check int) "compare 0 across generations" 0 (Expr.compare a b);
  Alcotest.(check bool) "structural_equal agrees" true
    (Expr.structural_equal a b);
  Alcotest.(check int) "digest stable across reset" (Expr.digest a)
    (Expr.digest b);
  (* mixed-generation algebra still normalises: old minus new is zero *)
  Alcotest.(check bool) "a - b = 0 across generations" true
    (Expr.is_zero (a - b));
  Alcotest.(check expr) "constants keep canonical identity" Expr.one
    (i 1)

let test_linear_in_with_atoms () =
  (* a ceil atom not involving v is a coefficient like any other *)
  let e = (Expr.ceil_div (v "N") (v "H") * v "t") + i 5 in
  match Expr.linear_in "t" e with
  | Some (a, b) ->
      Alcotest.(check expr) "coeff" (Expr.ceil_div (v "N") (v "H")) a;
      Alcotest.(check expr) "const" (i 5) b
  | None -> Alcotest.fail "linear in t"

let test_assume_set_domain () =
  let asm = tfft2_assume in
  let pinned = Assume.set_domain asm "L" (Assume.Expr_range (i 2, i 2)) in
  Probe.with_seed 47 (fun () ->
      Alcotest.(check bool) "L pinned to 2" true
        (Probe.equal pinned (p2 (v "L")) (i 4)));
  (* unknown vars are appended *)
  let extended = Assume.set_domain asm "Z" (Assume.Int_range (1, 1)) in
  Alcotest.(check bool) "appended" true
    (List.mem "Z" (Assume.vars extended))

let prop_pow2_laws =
  QCheck.Test.make ~name:"2^a * 2^b = 2^(a+b)" ~count:200
    (QCheck.pair (QCheck.int_range (-6) 6) (QCheck.int_range (-6) 6))
    (fun (a, b) ->
      let ea = Expr.add (v "k") (i a) and eb = Expr.sub (i b) (v "k") in
      Expr.equal
        (Expr.mul (p2 ea) (p2 eb))
        (p2 (Expr.add ea eb)))

let prop_subst_compose =
  QCheck.Test.make ~name:"subst composes" ~count:200
    (QCheck.pair arb_small_expr (QCheck.int_range (-9) 9))
    (fun (e, n) ->
      (* substituting y:=n then x:=n equals substituting both at once *)
      let one_by_one = Expr.subst "x" (i n) (Expr.subst "y" (i n) e) in
      let both = Expr.subst_env [ ("x", i n); ("y", i n) ] e in
      Expr.equal one_by_one both)

let prop_qnum_floor_ceil =
  QCheck.Test.make ~name:"floor <= q <= ceil, gap < 1" ~count:500
    (QCheck.pair (QCheck.int_range (-200) 200) (QCheck.int_range 1 50))
    (fun (a, b) ->
      let q = Qnum.make a b in
      let f = Qnum.floor q and c = Qnum.ceil q in
      Qnum.compare (Qnum.of_int f) q <= 0
      && Qnum.compare q (Qnum.of_int c) <= 0
      && Stdlib.(c - f <= 1)
      && Qnum.is_integer q = (f = c))

(* ------------------------------------------------------------------ *)
(* Compiled evaluation: [Expr.compile] runs native ints where it can and
   falls back to rationals where it must; either way its value, or the
   exception it raises, must be [Expr.eval]'s.  The generator aims at
   the fallbacks and at the order of operations: rational coefficients,
   [Pow2] exponents below 0 and above 61, divisions whose divisor can
   be zero, constants near +-2^61, unbound names ([z], [w]) and a
   repeated one ([a], whose last slot wins). *)

module Compile_check = struct
  open Stdlib

  let names = [| "a"; "b"; "a"; "c" |]
  let big = [ 1 lsl 61; -(1 lsl 61); (1 lsl 61) - 1; (1 lsl 61) + 1; max_int; min_int; min_int + 1 ]

  (* a constructor that overflows or divides by a constant zero keeps
     its first operand *)
  let guard f a b = match f a b with e -> e | exception (Qnum.Overflow | Qnum.Division_by_zero) -> a

  let gen_expr =
    let open QCheck.Gen in
    let leaf =
      frequency
        [
          (4, map Expr.int (int_range (-3) 4));
          (1, map Expr.int (oneofl big));
          (2, map2 (fun n d -> Expr.q (Qnum.make n d)) (int_range (-5) 5) (int_range 2 4));
          (6, map Expr.var (oneofl [ "a"; "b"; "c"; "p" ]));
          (1, map Expr.var (oneofl [ "z"; "w" ]));
        ]
    in
    let rec go n =
      if n = 0 then leaf
      else
        let sub = go (n - 1) in
        frequency
          [
            (3, leaf);
            (2, map2 (guard Expr.add) sub sub);
            (2, map2 (guard Expr.mul) sub sub);
            (1, map2 (guard Expr.sub) sub sub);
            (1, map2 (guard Expr.div) sub sub);
            (2, map2 (guard Expr.floor_div) sub sub);
            (2, map2 (guard Expr.ceil_div) sub sub);
            (1, map (fun e -> match Expr.pow2 e with e -> e | exception Qnum.Overflow -> e) sub);
          ]
    in
    go 3

  let gen_value =
    QCheck.Gen.(
      frequency
        [ (6, int_range (-3) 4); (2, oneofl big); (1, int_range 58 70); (1, int_range (-70) (-58)) ])

  (* a row for [names], plus the value of [p], which compiles as [Fixed] *)
  let gen_case =
    QCheck.Gen.(triple gen_expr (array_repeat (Array.length names) gen_value) gen_value)

  let outcome f = match f () with q -> Ok (Qnum.to_string q) | exception e -> Error (Printexc.to_string e)

  let agrees (e, row, p) =
    let lookup v =
      if v = "p" then Qnum.of_int p
      else
        match Env.slot names v with
        | Expr.Slot j -> Qnum.of_int row.(j)
        | _ -> raise (Env.Unbound v)
    in
    let slot v = if v = "p" then Expr.Fixed p else Env.slot names v in
    outcome (fun () -> Expr.compile slot e row) = outcome (fun () -> Expr.eval lookup e)

  let print (e, row, p) =
    Printf.sprintf "%s\nrow [%s], p = %d" (Expr.to_string e)
      (String.concat "; " (Array.to_list (Array.map string_of_int row))) p

  let prop =
    QCheck.Test.make ~name:"compiled evaluation equals eval" ~count:3000
      (QCheck.make gen_case ~print) agrees
end

(* ------------------------------------------------------------------ *)
(* One-shot evaluation: [Expr.eval] walks the expression in native ints
   and re-evaluates exactly only when a rational appears; its value, or
   the exception it raises, must be [Expr.eval_exact]'s.  On top of
   [Compile_check]'s expressions the generator aims at the walk's
   edges: [Pow2] of a variable at 61, 62 and below 0, floor and ceiling
   quotients of [min_int], products that overflow, and a variable [r]
   whose value may be a rational. *)

module Eval_check = struct
  open Stdlib

  let gen_expr =
    let open QCheck.Gen in
    let v = map Expr.var (oneofl [ "a"; "b"; "c"; "r" ]) in
    let edge =
      frequency
        [
          (2, map Expr.pow2 v);
          (2, map2 Expr.floor_div v v);
          (2, map2 Expr.ceil_div v v);
          (2, map2 Expr.mul v v);
          (1, map2 (fun e k -> Expr.mul e (Expr.int k)) v (oneofl Compile_check.big));
        ]
    in
    frequency
      [
        (3, Compile_check.gen_expr);
        (2, edge);
        (2, map2 (Compile_check.guard Expr.add) edge Compile_check.gen_expr);
        (1, map2 (Compile_check.guard Expr.mul) edge edge);
      ]

  let gen_value =
    QCheck.Gen.(
      frequency
        [
          (4, int_range (-3) 4);
          (2, oneofl [ 61; 62; 63; -1; -61; -62; min_int; min_int + 1; max_int ]);
          (1, oneofl Compile_check.big);
        ])

  (* values of a, b, c and p, and r as a numerator and a denominator *)
  let gen_case =
    QCheck.Gen.(
      triple gen_expr (array_repeat 4 gen_value) (pair (int_range (-9) 9) (int_range 1 3)))

  let lookup (vals, (n, d)) v =
    match v with
    | "a" -> Qnum.of_int vals.(0)
    | "b" -> Qnum.of_int vals.(1)
    | "c" -> Qnum.of_int vals.(2)
    | "p" -> Qnum.of_int vals.(3)
    | "r" -> Qnum.make n d
    | _ -> raise (Env.Unbound v)

  let outcome f = match f () with x -> Ok x | exception e -> Error (Printexc.to_string e)

  let agrees (e, vals, r) =
    let lookup = lookup (vals, r) in
    let exact = outcome (fun () -> Expr.eval_exact lookup e) in
    outcome (fun () -> Qnum.to_string (Expr.eval lookup e))
    = Result.map Qnum.to_string exact
    && outcome (fun () -> Expr.eval_int lookup e)
       = Result.bind exact (fun q ->
             if Qnum.is_integer q then Ok (Qnum.to_int q)
             else Error (Printexc.to_string (Expr.Non_integral (Format.asprintf "value %a" Qnum.pp q))))

  let print (e, vals, (n, d)) =
    Printf.sprintf "%s\na, b, c, p = %s; r = %d/%d" (Expr.to_string e)
      (String.concat ", " (Array.to_list (Array.map string_of_int vals))) n d

  let prop =
    QCheck.Test.make ~name:"eval equals the exact path" ~count:3000
      (QCheck.make gen_case ~print) agrees
end

(* ------------------------------------------------------------------ *)
(* Sample bank: every probe answer equals the one a fresh fork of the
   base state gives, which is how each query drew its samples before
   the bank existed.  [fresh] keeps that per-query sampling as the
   reference; [planted] is a deliberately wrong bank, keyed on the
   variable names alone, that the property must catch. *)

module Bank_check = struct
  open Stdlib

  type fns = {
    sample : Assume.t -> int -> Env.t;
    equal : Assume.t -> Expr.t -> Expr.t -> bool;
    is_zero : Assume.t -> Expr.t -> bool;
    sign : Assume.t -> Expr.t -> int option;
    nonneg : Assume.t -> Expr.t -> bool;
    le : Assume.t -> Expr.t -> Expr.t -> bool;
    lt : Assume.t -> Expr.t -> Expr.t -> bool;
    divides : Assume.t -> Expr.t -> Expr.t -> bool;
    constant_in : Assume.t -> string -> Expr.t -> bool;
  }

  let real =
    {
      sample = Probe.sample;
      equal = Probe.equal;
      is_zero = Probe.is_zero;
      sign = Probe.sign;
      nonneg = Probe.nonneg;
      le = Probe.le;
      lt = Probe.lt;
      divides = Probe.divides;
      constant_in;
    }

  (* The predicates over an environment-level [forall], as written
     before the bank. *)
  let of_forall ~sample forall =
    let ev = Env.eval_q in
    let nonneg asm e = forall asm (fun env -> Qnum.sign (ev env e) >= 0) in
    {
      sample;
      equal =
        (fun asm a b ->
          Expr.equal a b || forall asm (fun env -> Qnum.equal (ev env a) (ev env b)));
      is_zero = (fun asm e -> Expr.is_zero e || forall asm (fun env -> Qnum.is_zero (ev env e)));
      sign =
        (fun asm e ->
          let signs = Hashtbl.create 3 in
          let ok =
            forall asm (fun env ->
                Hashtbl.replace signs (Qnum.sign (ev env e)) ();
                true)
          in
          match Hashtbl.fold (fun s () acc -> s :: acc) signs [] with
          | [ s ] when ok -> Some s
          | _ -> None);
      nonneg;
      le = (fun asm a b -> nonneg asm (Expr.sub b a));
      lt = (fun asm a b -> forall asm (fun env -> Qnum.compare (ev env a) (ev env b) < 0));
      divides =
        (fun asm d e ->
          forall asm (fun env ->
              let dv = ev env d in
              (not (Qnum.is_zero dv)) && Qnum.is_integer (Qnum.div (ev env e) dv)));
      constant_in =
        (fun asm x e ->
          (not (Expr.mem_var x e))
          || forall asm (fun env ->
                 match Assume.range_in_env asm env x with
                 | None -> false
                 | Some (lo, hi) ->
                     let at k =
                       Expr.eval
                         (fun w -> if String.equal w x then Qnum.of_int k else Env.lookup env w)
                         e
                     in
                     let reference = at lo in
                     let rec check k =
                       k > min 4 (hi - lo) || (Qnum.equal (at (lo + k)) reference && check (k + 1))
                     in
                     check 1));
    }

  let forall_over draw asm f =
    let ok = ref true in
    (try
       for k = 0 to Probe.samples - 1 do
         if not (f (draw asm k)) then ok := false
       done
     with Expr.Non_integral _ | Env.Unbound _ | Division_by_zero | Qnum.Division_by_zero ->
       ok := false);
    !ok

  (* Reference: every query and every [sample] call forks the base state
     [Probe.with_seed seed] installs and draws from the start. *)
  let fresh ~seed =
    let sample asm k =
      let st = Random.State.make [| seed |] in
      let rec go j =
        let env = Assume.sample ~state:st asm in
        if j = k then env else go (j + 1)
      in
      go 0
    in
    let forall asm f =
      let st = Random.State.make [| seed |] in
      forall_over (fun asm _ -> Assume.sample ~state:st asm) asm f
    in
    of_forall ~sample forall

  (* A wrong bank: rows shared by every assumption set with the same
     variable names, whatever their domains. *)
  let planted () =
    let banks = Hashtbl.create 16 in
    fun ~seed ->
      let sample asm k =
        let key = (seed, Assume.vars asm) in
        let st, rows =
          match Hashtbl.find_opt banks key with
          | Some b -> b
          | None ->
              let b = (Random.State.make [| seed |], ref [||]) in
              Hashtbl.replace banks key b;
              b
        in
        while Array.length !rows <= k do
          rows := Array.append !rows [| Assume.sample ~state:st asm |]
        done;
        !rows.(k)
      in
      of_forall ~sample (forall_over sample)

  let show f =
    match f () with s -> s | exception e -> "raised " ^ Printexc.to_string e

  let show_env env =
    String.concat "," (List.map (fun (x, n) -> Printf.sprintf "%s=%d" x n) (Env.bindings env))

  (* Every answer [p] gives for one assumption set, rendered (raised
     exceptions included), then the first [Probe.samples + 8] samples:
     those past the predicates' rows make the bank's rows extend. *)
  let answers p asm (a, b, x) =
    let bool f = show (fun () -> string_of_bool (f ())) in
    let sign e = show (fun () -> match p.sign asm e with None -> "none" | Some s -> string_of_int s) in
    [
      bool (fun () -> p.equal asm a b);
      bool (fun () -> p.nonneg asm a);
      bool (fun () -> p.le asm a b);
      bool (fun () -> p.divides asm a b);
      bool (fun () -> p.is_zero asm a);
      sign a;
      sign b;
      sign (Expr.var x);
      bool (fun () -> p.lt asm a b);
      bool (fun () -> p.constant_in asm x a);
    ]
    @ List.init (Probe.samples + 8) (fun k -> show (fun () -> show_env (p.sample asm k)))

  (* [impl] against [fresh] on two assumption sets that share their
     names, then inside and after a nested re-seed. *)
  let agrees impl (seed, asms, q) =
    let phase seed =
      List.for_all (fun asm -> answers (impl ~seed) asm q = answers (fresh ~seed) asm q) asms
    in
    Probe.with_seed seed (fun () ->
        let outer = phase seed in
        let inner = Probe.with_seed (seed + 1) (fun () -> phase (seed + 1)) in
        let after = phase seed in
        outer && inner && after)

  let names = [ "a"; "b"; "c"; "d" ]

  (* Expressions over [scope], now and then over [z], which no set
     declares (Env.Unbound); division by a variable (Division_by_zero),
     halving (Non_integral) and powers of two of values up to 70
     (Overflow).  With [big] > 0, constants near +-2^61 too, so sums
     and products overflow and the compiled evaluators fall back.  A
     constructor that overflows, or divides by a constant zero, keeps
     its first operand. *)
  let guard = Compile_check.guard

  let gen_expr ?(big = 0) ~unbound scope =
    let open QCheck.Gen in
    let var = if scope = [] then [] else [ (8, map Expr.var (oneofl scope)) ] in
    let leaf =
      frequency
        ((6, map Expr.int (int_range (-3) 4))
        :: (big, map Expr.int (oneofl Compile_check.big))
        :: (unbound, return (Expr.var "z"))
        :: var)
    in
    let rec go n =
      if n = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (2, map2 (guard Expr.add) (go (n - 1)) (go (n - 1)));
            (2, map2 (guard Expr.mul) (go (n - 1)) (go (n - 1)));
            (1, map2 (guard Expr.sub) (go (n - 1)) (go (n - 1)));
            (1, map2 (guard Expr.div) (go (n - 1)) (go (n - 1)));
            (1, map2 (guard Expr.floor_div) (go (n - 1)) (go (n - 1)));
            (1, map2 (guard Expr.ceil_div) (go (n - 1)) (go (n - 1)));
            (1, map (fun e -> guard (fun e _ -> Expr.pow2 e) e e) (go (n - 1)));
          ]
    in
    go 2

  (* A domain for a declaration after those of [scope]: bounds and
     [Pow2_of] bases mostly over earlier names, so most sets draw, but
     some bounds divide by a variable and some name [z]. *)
  let gen_domain scope =
    let open QCheck.Gen in
    let earlier = if scope = [] then names else scope in
    let bound = gen_expr ~unbound:1 scope in
    frequency
      [
        ((if scope = [] then 20 else 0), map2 (fun lo w -> Assume.Int_range (lo, lo + w)) (int_range 0 5) (int_range 0 8));
        (3, map2 (fun lo w -> Assume.Int_range (lo, lo + w)) (int_range (-3) 5) (int_range (-1) 8));
        (1, map (fun lo -> Assume.Int_range (lo, lo + 10)) (int_range 55 60));
        (2, map (fun w -> Assume.Pow2_of w) (frequency [ (8, oneofl earlier); (1, oneofl names) ]));
        (3, map2 (fun lo hi -> Assume.Expr_range (lo, hi)) bound bound);
        ( 1,
          map2
            (fun x y -> Assume.Expr_range (Expr.zero, guard Expr.div (Expr.var x) (Expr.var y)))
            (oneofl earlier) (oneofl earlier) );
      ]

  (* Declarations go through [Assume.add], so names repeat; the sibling
     set redeclares one name with a fresh domain and keeps the names. *)
  let gen_case =
    let open QCheck.Gen in
    let* n = int_range 1 5 in
    let rec decls k asm =
      if k = n then return asm
      else
        let* x = oneofl names in
        let* d = gen_domain (Assume.vars asm) in
        decls (k + 1) (Assume.add asm x d)
    in
    let* asm = decls 0 Assume.empty in
    let* x = oneofl (Assume.vars asm) in
    let* d = gen_domain (Assume.vars asm) in
    let* seed = int_range 0 9999 in
    let query = gen_expr ~big:1 ~unbound:1 names in
    let* q = triple query query (oneofl names) in
    return (seed, [ asm; Assume.set_domain asm x d ], q)

  let print (seed, asms, (a, b, x)) =
    Format.asprintf "seed %d@.%a@.a = %a, b = %a, x = %s" seed
      (Format.pp_print_list (fun ppf t -> Format.fprintf ppf "[%a]" Assume.pp t))
      asms Expr.pp a Expr.pp b x

  let prop =
    QCheck.Test.make ~name:"bank answers as fresh forks" ~count:300
      (QCheck.make gen_case ~print)
      (agrees (fun ~seed:_ -> real))

  (* Fixed cases for the column kernel's parity traps, each with the
     answer the kernel must give, rendered as [answers] renders it. *)
  let expect_raise f x = show (fun () -> string_of_bool (f ())) = "raised " ^ Printexc.to_string x

  let traps =
    let i = Expr.int and v = Expr.var in
    [
      (* (a) an [Expr_range] draws its upper bound first: [z] is unbound
         before [2^(2/3)] is found fractional. *)
      ( "hi before lo",
        ( 3,
          [ Assume.of_list [ ("a", Assume.Expr_range (Expr.pow2 (Expr.div (i 2) (i 3)), Expr.pow2 (Expr.div (v "z") (i 4)))) ] ],
          (v "a", i 1, "a") ),
        fun asm ->
          expect_raise
            (fun () ->
              ignore (Probe.sample asm 0);
              true)
            (Env.Unbound "z") );
      (* (b) [-2*2^b] is [min_int] at b = 61, and [min_int / -1] is not a
         rational: the quotient overflows where integer [mod] says 0. *)
      ( "quotient overflow",
        (5, [ Assume.of_list [ ("b", Assume.Int_range (61, 61)) ] ], (i (-1), Expr.mul (i (-2)) (Expr.pow2 (v "b")), "b")),
        fun asm -> expect_raise (fun () -> Probe.divides asm (i (-1)) (Expr.mul (i (-2)) (Expr.pow2 (v "b")))) Qnum.Overflow );
      (* A row evaluates [divides]'s dividend only where the divisor is
         not 0.  With seed 0 the first row has x = 0, where the dividend
         would divide by 0, and the next row with x = 1 overflows: the
         column that stopped at the first row must be continued. *)
      ( "skipped raise",
        ( 0,
          [ Assume.of_list [ ("x", Assume.Int_range (0, 1)) ] ],
          (v "x", Expr.add (Expr.floor_div (i 1) (v "x")) (Expr.pow2 (Expr.mul (i 70) (v "x"))), "x") ),
        fun asm ->
          Probe.with_seed 0 (fun () ->
              Env.find (Probe.sample asm 0) "x" = 0
              && expect_raise
                   (fun () ->
                     Probe.divides asm (v "x")
                       (Expr.add (Expr.floor_div (i 1) (v "x")) (Expr.pow2 (Expr.mul (i 70) (v "x")))))
                   Qnum.Overflow) );
      (* (c) one set under two seeds: its bank must not outlive a
         re-seed. *)
      ( "re-seed",
        (7, [ Assume.of_list [ ("a", Assume.Int_range (0, 1000)) ] ], (v "a", i 500, "a")),
        fun asm -> Probe.lt asm (v "a") (i 1001) );
      (* Both operands raise on the first row: [Qnum.equal (a r) (b r)]
         evaluated [b] first, whose overflow escapes, where [a]'s
         unbound variable would have answered [false]. *)
      ( "operand order",
        ( 11,
          [ Assume.of_list [ ("x", Assume.Int_range (1, 3)) ] ],
          (v "z", Expr.pow2 (Expr.mul (i 70) (v "x")), "x") ),
        fun asm -> expect_raise (fun () -> Probe.equal asm (v "z") (Expr.pow2 (Expr.mul (i 70) (v "x")))) Qnum.Overflow );
    ]

  let test_traps () =
    List.iter
      (fun (name, ((_, asms, _) as case), pinned) ->
        Alcotest.(check bool) (name ^ ": agrees with fresh forks") true (agrees (fun ~seed:_ -> real) case);
        Alcotest.(check bool) (name ^ ": pinned answer") true (List.for_all pinned asms))
      traps

  (* Planted kernels, each wrong in one trap's way. *)

  (* Fresh forks of a sampler that evaluates an [Expr_range]'s lower
     bound before its upper one. *)
  let lo_first ~seed =
    let draw st asm =
      let pick lo hi = if hi <= lo then lo else lo + Random.State.int st (hi - lo + 1) in
      List.fold_left
        (fun env (x, d) ->
          let value =
            match d with
            | Assume.Int_range (lo, hi) -> pick lo hi
            | Assume.Pow2_of w -> 1 lsl Env.find env w
            | Assume.Expr_range (lo, hi) ->
                let lo = Env.eval env lo in
                pick lo (Env.eval env hi)
          in
          Env.add x value env)
        Env.empty (Assume.to_list asm)
    in
    let sample asm k =
      let st = Random.State.make [| seed |] in
      let rec go j =
        let env = draw st asm in
        if j = k then env else go (j + 1)
      in
      go 0
    in
    of_forall ~sample (fun asm f ->
        let st = Random.State.make [| seed |] in
        forall_over (fun asm _ -> draw st asm) asm f)

  (* [divides] on integers by [mod], which answers where the rational
     quotient overflows. *)
  let int_divides ~seed =
    let f = fresh ~seed in
    {
      f with
      divides =
        (fun asm d e ->
          forall_over f.sample asm (fun env ->
              let dv = Env.eval_q env d in
              (not (Qnum.is_zero dv))
              &&
              let ev = Env.eval_q env e in
              if Qnum.is_integer dv && Qnum.is_integer ev then Qnum.to_int ev mod Qnum.to_int dv = 0
              else Qnum.is_integer (Qnum.div ev dv)));
    }

  (* A one-entry bank cache that a re-seed does not flush. *)
  let ungenerationed () =
    let last = ref None in
    fun ~seed ->
      let sample asm k =
        let st, rows =
          match !last with
          | Some (a, b) when a == asm -> b
          | _ ->
              let b = (Random.State.make [| seed |], ref [||]) in
              last := Some (asm, b);
              b
        in
        while Array.length !rows <= k do
          rows := Array.append !rows [| Assume.sample ~state:st asm |]
        done;
        !rows.(k)
      in
      of_forall ~sample (forall_over sample)

  (* [equal] and [lt] evaluating [a] before [b]. *)
  let swapped ~seed =
    let f = fresh ~seed in
    let ev = Env.eval_q in
    let forall = forall_over f.sample in
    {
      f with
      equal =
        (fun asm a b ->
          Expr.equal a b
          || forall asm (fun env ->
                 let a = ev env a in
                 Qnum.equal a (ev env b)));
      lt =
        (fun asm a b ->
          forall asm (fun env ->
              let a = ev env a in
              Qnum.compare a (ev env b) < 0));
    }

  let test_planted_kernels_caught () =
    let cases = List.map (fun (_, case, _) -> case) traps in
    List.iter
      (fun (name, impl) ->
        Alcotest.(check bool) (name ^ " caught") true (not (List.for_all (agrees impl) cases)))
      [
        ("lo-before-hi draw", lo_first);
        ("int-only divides", int_divides);
        ("ungenerationed bank cache", ungenerationed ());
        ("operands swapped", swapped);
      ]

  (* The property has teeth: the planted bank fails it. *)
  let test_planted_caught () =
    let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:100 gen_case in
    let planted = planted () in
    Alcotest.(check bool) "every case agrees with the real bank" true
      (List.for_all (agrees (fun ~seed:_ -> real)) cases);
    Alcotest.(check bool) "some case catches the name-keyed bank" true
      (not (List.for_all (agrees planted) cases))
end

let () =
  Alcotest.run "symbolic"
    [
      ( "qnum",
        [
          Alcotest.test_case "basic" `Quick test_qnum_basic;
          Alcotest.test_case "overflow" `Quick test_qnum_overflow;
          Alcotest.test_case "boundaries" `Quick test_qnum_boundaries;
          Alcotest.test_case "min_int" `Quick test_qnum_min_int;
          Alcotest.test_case "compare total" `Quick test_qnum_compare_total;
        ] );
      ( "expr",
        [
          Alcotest.test_case "ring" `Quick test_expr_ring;
          Alcotest.test_case "pow2" `Quick test_expr_pow2;
          Alcotest.test_case "div" `Quick test_expr_div;
          Alcotest.test_case "floor/ceil" `Quick test_expr_floor_ceil;
          Alcotest.test_case "subst" `Quick test_expr_subst;
          Alcotest.test_case "linear_in" `Quick test_linear_in;
          Alcotest.test_case "eval" `Quick test_eval;
        ] );
      ( "probe",
        [
          Alcotest.test_case "equal" `Quick test_probe_equal;
          Alcotest.test_case "sign/div" `Quick test_probe_sign_div;
          Alcotest.test_case "constant_in" `Quick test_probe_constant_in;
          Alcotest.test_case "planted bank caught" `Quick Bank_check.test_planted_caught;
          Alcotest.test_case "column traps" `Quick Bank_check.test_traps;
          Alcotest.test_case "planted kernels caught" `Quick Bank_check.test_planted_kernels_caught;
          QCheck_alcotest.to_alcotest Bank_check.prop;
          QCheck_alcotest.to_alcotest Compile_check.prop;
          QCheck_alcotest.to_alcotest Eval_check.prop;
        ] );
      ( "range",
        [
          Alcotest.test_case "tfft2 reach" `Quick test_range_tfft2_reach;
          Alcotest.test_case "monotonicity" `Quick test_range_monotone;
          Alcotest.test_case "mixed refused" `Quick test_range_mixed;
        ] );
      ( "intern",
        [
          Alcotest.test_case "sharing" `Quick test_intern_sharing;
          Alcotest.test_case "reset" `Quick test_intern_reset;
        ] );
      ( "corner-cases",
        [
          Alcotest.test_case "expr corners" `Quick test_expr_corner_cases;
          Alcotest.test_case "linear_in with atoms" `Quick
            test_linear_in_with_atoms;
          Alcotest.test_case "assume set_domain" `Quick test_assume_set_domain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eval_homomorphic; prop_add_commutes; prop_mul_distributes;
            prop_qnum_field; prop_pow2_laws; prop_subst_compose;
            prop_qnum_floor_ceil;
          ] );
    ]
