type domain =
  | Int_range of int * int
  | Pow2_of of string
  | Expr_range of Expr.t * Expr.t

(* The declarations, and their cache key, built once with the set: a
   probe finds the set's sample bank without rebuilding it. *)
type t = { decls : (string * domain) list; key : Artifact.Key.t }

let domain_key = function
  | Int_range (lo, hi) -> Artifact.Key.(list [ int 0; int lo; int hi ])
  | Pow2_of w -> Artifact.Key.(list [ int 1; str w ])
  | Expr_range (lo, hi) -> Artifact.Key.(list [ int 2; expr lo; expr hi ])

let of_list decls =
  {
    decls;
    key = Artifact.Key.list (List.map (fun (v, d) -> Artifact.Key.(list [ str v; domain_key d ])) decls);
  }

let empty = of_list []
let add t v d = of_list (t.decls @ [ (v, d) ])
let to_list t = t.decls
let vars t = List.map fst t.decls
let domain_of t v = List.assoc_opt v t.decls
let key t = t.key

let set_domain t v d =
  if List.mem_assoc v t.decls then
    of_list (List.map (fun (w, old) -> if String.equal w v then (w, d) else (w, old)) t.decls)
  else add t v d

let range_in_env t env v =
  match domain_of t v with
  | None -> None
  | Some (Int_range (lo, hi)) -> Some (lo, hi)
  | Some (Pow2_of w) ->
      let e = 1 lsl Env.find env w in
      Some (e, e)
  | Some (Expr_range (lo, hi)) -> Some (Env.eval env lo, Env.eval env hi)

(* Declaration [k] is drawn into slot [k] of the row, reading only the
   slots before it: a name declared twice is read at its latest earlier
   declaration, and one not yet declared raises [Env.Unbound], as an
   environment built by the declarations so far would.  An
   [Expr_range] evaluates its upper bound before its lower one. *)
let sampler t =
  let names = Array.of_list (vars t) in
  let pick st lo hi = if hi <= lo then lo else lo + Random.State.int st (hi - lo + 1) in
  let step k (_, d) =
    let before = Array.sub names 0 k in
    match d with
    | Int_range (lo, hi) -> fun st _ -> pick st lo hi
    | Pow2_of w -> (
        match Env.slot before w with
        | Expr.Slot j -> fun _ row -> 1 lsl row.(j)
        | _ -> fun _ _ -> raise (Env.Unbound w))
    | Expr_range (lo, hi) ->
        let lo = Env.compile_int before lo and hi = Env.compile_int before hi in
        fun st row ->
          let hi = hi row in
          let lo = lo row in
          pick st lo hi
  in
  let steps = Array.of_list (List.mapi step t.decls) in
  fun st ->
    let row = Array.make (Array.length steps) 0 in
    Array.iteri (fun k step -> row.(k) <- step st row) steps;
    row

let sample ?state t =
  let st = match state with Some s -> s | None -> Random.State.make_self_init () in
  let row = sampler t st in
  Env.ephemeral (Env.of_list (List.combine (vars t) (Array.to_list row)))

let pp_domain ppf = function
  | Int_range (lo, hi) -> Format.fprintf ppf "[%d..%d]" lo hi
  | Pow2_of v -> Format.fprintf ppf "2^%s" v
  | Expr_range (lo, hi) -> Format.fprintf ppf "[%a..%a]" Expr.pp lo Expr.pp hi

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    (fun ppf (v, d) -> Format.fprintf ppf "%s in %a" v pp_domain d)
    ppf t.decls
