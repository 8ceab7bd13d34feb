open Symbolic
open Types

let rec subst_stmt v by = function
  | Assign a ->
      Assign
        { a with
          refs =
            List.map
              (fun r -> { r with index = List.map (Expr.subst v by) r.index })
              a.refs
        }
  | Loop l ->
      Loop
        { l with
          lo = Expr.subst v by l.lo;
          hi = Expr.subst v by l.hi;
          step = Expr.subst v by l.step;
          body = List.map (subst_stmt v by) l.body;
        }

let rec loop (l : loop) : loop =
  let body = List.map stmt l.body in
  let is_trivial =
    Expr.is_zero l.lo && (match Expr.to_int l.step with Some 1 -> true | _ -> false)
  in
  if is_trivial then { l with body }
  else
    (* v_old = lo + step * v_new, trip count = floor((hi-lo)/step) + 1. *)
    let replacement = Expr.add l.lo (Expr.mul l.step (Expr.var l.var)) in
    let hi' = Expr.floor_div (Expr.sub l.hi l.lo) l.step in
    {
      l with
      lo = Expr.zero;
      hi = hi';
      step = Expr.one;
      body = List.map (subst_stmt l.var replacement) body;
    }

and stmt = function Assign a -> Assign a | Loop l -> Loop (loop l)

let phase ph = { ph with nest = loop ph.nest }
