type t = { num : int; den : int }

exception Overflow
exception Division_by_zero

(* Multiplication guard: detect overflow of [a * b] on 63-bit ints.  A
   wrapped product fails [p / b = a] except for [min_int * -1], whose
   wrap [min_int] divides back to [min_int]. *)
let mul_int a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || (b = -1 && a = min_int) then raise Overflow else p

let add_int a b =
  let s = a + b in
  (* Overflow iff operands share a sign and the sum flips it. *)
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow else s

(* [-a], except that [-min_int] does not exist. *)
let neg_int a = if a = min_int then raise Overflow else -a

(* Non-negative whenever the gcd is below 2^62, even with a [min_int]
   argument ([a mod b] keeps [a]'s sign; only [Stdlib.abs min_int] is
   negative). *)
let rec gcd a b = if b = 0 then Stdlib.abs a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero
  else if num = 0 then { num = 0; den = 1 }
  else
    let num, den = if den < 0 then (neg_int num, neg_int den) else (num, den) in
    let g = gcd (Stdlib.abs num) den in
    { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let add a b =
  if a.den = b.den then make (add_int a.num b.num) a.den
  else make (add_int (mul_int a.num b.den) (mul_int b.num a.den)) (mul_int a.den b.den)

let neg a = { a with num = neg_int a.num }
let sub a b = add a (neg b)

let mul a b =
  (* Cross-reduce before multiplying to delay overflow. *)
  let g1 = gcd (Stdlib.abs a.num) b.den and g2 = gcd (Stdlib.abs b.num) a.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  make (mul_int (a.num / g1) (b.num / g2)) (mul_int (a.den / g2) (b.den / g1))

let inv a = if a.num = 0 then raise Division_by_zero else make a.den a.num
let div a b = mul a (inv b)
let abs a = if a.num < 0 then neg a else a
let equal a b = a.num = b.num && a.den = b.den

let compare a b =
  (* Exact comparison via sign of the cross difference.  The raw
     products [a.num * b.den] and [b.num * a.den] can overflow for
     rationals near max_int even though both values are tame, which
     would make comparison partial; cancelling gcd(|a.num|, |b.num|)
     and gcd(a.den, b.den) first divides both products by the same
     positive factor, preserving the sign of their difference.  If the
     reduced products still overflow, fall back to the sign and then to
     floating-point comparison - inexact, but total. *)
  let sa = Stdlib.compare a.num 0 and sb = Stdlib.compare b.num 0 in
  if sa <> sb then Stdlib.compare sa sb
  else if a.num = b.num && a.den = b.den then 0
  else
    let gn = gcd (Stdlib.abs a.num) (Stdlib.abs b.num) in
    let gd = gcd a.den b.den in
    let gn = if gn = 0 then 1 else gn in
    try
      Stdlib.compare
        (mul_int (a.num / gn) (b.den / gd))
        (mul_int (b.num / gn) (a.den / gd))
    with Overflow ->
      Stdlib.compare
        (float_of_int a.num /. float_of_int a.den)
        (float_of_int b.num /. float_of_int b.den)

let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0
let is_integer a = a.den = 1

let to_int a =
  if a.den = 1 then a.num
  else invalid_arg (Printf.sprintf "Qnum.to_int: %d/%d" a.num a.den)

(* Division truncates toward zero, and a reduced [den > 1] never divides
   [num]: no intermediate can wrap, even at [min_int]. *)
let floor a =
  if a.den = 1 then a.num
  else if a.num < 0 then (a.num / a.den) - 1
  else a.num / a.den

let ceil a =
  if a.den = 1 then a.num
  else if a.num > 0 then (a.num / a.den) + 1
  else a.num / a.den

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let pow2 k =
  if k > 61 || k < -61 then raise Overflow
  else if k >= 0 then of_int (1 lsl k)
  else make 1 (1 lsl -k)

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
