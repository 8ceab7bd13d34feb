open Symbolic

let address ~dims index =
  if List.length dims <> List.length index then
    invalid_arg "Linearize.address: rank mismatch";
  (* i1 + d1*(i2 + d2*(i3 + ...)); the last extent is never used. *)
  let rec go index dims =
    match (index, dims) with
    | [ i ], [ _ ] -> i
    | i :: index, d :: dims -> Expr.add i (Expr.mul d (go index dims))
    | [], [] -> Expr.zero
    | _ -> assert false
  in
  go index dims

let size ~dims = Expr.prod dims

type size_failure = Unbound of string | Non_integral of string | Overflow

let array_size env prog array =
  let dims = (Types.array_decl prog array).Types.dims in
  match Env.eval env (size ~dims) with
  | n -> Ok n
  | exception Env.Unbound v -> Error (Unbound v)
  | exception Expr.Non_integral e -> Error (Non_integral e)
  | exception Qnum.Overflow -> Error Overflow
