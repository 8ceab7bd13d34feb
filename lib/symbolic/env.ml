module M = Map.Make (String)

(* Each environment carries a unique [id]: the memo-coherence key every
   cache uses (see DESIGN.md sections 12 and 14).  Environments are
   immutable, so an (id, expr) artifact key can never alias between
   bindings.

   [ephemeral] marks environments that live shorter than a cache entry
   is worth: probe samples and the enumerator's per-iteration bindings.
   Their evaluations bypass the global store - inserting them would
   promote megabytes of short-lived keys to the major heap and evict
   the durable entries the warm path depends on.  The flag is sticky
   across [add] so a whole derivation chain opts out at its root. *)
type t = { map : int M.t; id : int; ephemeral : bool }

exception Unbound = Expr.Unbound

(* Process-wide: an environment built on one domain and one built on
   another never share an id, so neither reads the other's entries. *)
let next_id = Atomic.make 1

let make ?(ephemeral = false) map =
  { map; id = Atomic.fetch_and_add next_id 1; ephemeral }

let empty = make M.empty
let of_list l = make (List.fold_left (fun m (k, v) -> M.add k v m) M.empty l)
let add k v t = make ~ephemeral:t.ephemeral (M.add k v t.map)
let id t = t.id
let ephemeral t = if t.ephemeral then t else make ~ephemeral:true t.map
let is_ephemeral t = t.ephemeral

let find env v =
  match M.find_opt v env.map with Some x -> x | None -> raise (Unbound v)

let bindings env = M.bindings env.map
let lookup env v = Qnum.of_int (find env v)

(* Evaluation is a pure function of (environment, expression); only
   successful evaluations are cached - an evaluation that raises
   (unbound variable, fractional Pow2 exponent) recomputes and the
   exception propagates unchanged. *)
let eval_store : Qnum.t Artifact.store = Artifact.store "env.eval"

let uncached_count = Metrics.counter "env.eval_uncached"

let eval_q env e =
  if env.ephemeral then begin
    Metrics.incr uncached_count;
    Expr.eval (lookup env) e
  end
  else
    Artifact.find eval_store
      Artifact.Key.(list [ int env.id; expr e ])
      (fun () -> Expr.eval (lookup env) e)

let eval env e =
  if env.ephemeral then begin
    Metrics.incr uncached_count;
    Expr.eval_int (lookup env) e
  end
  else
    let v = eval_q env e in
    if Qnum.is_integer v then Qnum.to_int v
    else raise (Expr.Non_integral (Format.asprintf "value %a" Qnum.pp v))

(* A row binds [names.(j)] at slot [j]; the last binding of a repeated
   name wins, as in [of_list]. *)
let slot names v =
  let rec go j =
    if j < 0 then Expr.Free else if String.equal names.(j) v then Expr.Slot j else go (j - 1)
  in
  go (Array.length names - 1)

(* A row is an environment that lives for one evaluation: counted like
   an ephemeral environment's, once per evaluation, on the domain that
   compiled it. *)
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
