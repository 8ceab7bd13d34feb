module M = Map.Make (String)

type t = int M.t

exception Unbound = Expr.Unbound

let empty = M.empty
let of_list l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l
let add = M.add

let find env v =
  match M.find_opt v env with Some x -> x | None -> raise (Unbound v)

let bindings = M.bindings
let lookup env v = Qnum.of_int (find env v)

(* Every evaluation is counted: nothing caches one, so the counter is
   the evaluation work of a run. *)
let uncached_count = Metrics.counter "env.eval_uncached"

let eval_q env e =
  Metrics.incr uncached_count;
  Expr.eval (lookup env) e

let eval env e =
  Metrics.incr uncached_count;
  Expr.eval_int (lookup env) e

(* A row binds [names.(j)] at slot [j]; the last binding of a repeated
   name wins, as in [of_list]. *)
let slot names v =
  let rec go j =
    if j < 0 then Expr.Free else if String.equal names.(j) v then Expr.Slot j else go (j - 1)
  in
  go (Array.length names - 1)

(* A row is an environment that lives for one evaluation: counted like
   any other evaluation, on the domain that compiled it. *)
let counted f =
  let uncached = Metrics.local_counter uncached_count in
  fun row ->
    Metrics.incr_local uncached;
    f row

let compile names e = counted (Expr.compile (slot names) e)
let compile_int names e = counted (Expr.compile_int (slot names) e)

let pp ppf env =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (k, v) -> Format.fprintf ppf "%s=%d" k v))
    (bindings env)
