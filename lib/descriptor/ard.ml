open Symbolic
open Ir

type dim = {
  alpha : Expr.t;
  stride : Expr.t;
  sign : int;
  vars : string list;
  uniform : bool;
}

type t = {
  array : string;
  dims : dim list;
  offset : Expr.t;
  mix : Access_mix.t;
  exact : bool;
  phi : Expr.t;
  par_var : string option;
}

exception Unsupported

let span d = Expr.mul (Expr.sub d.alpha Expr.one) d.stride

let invariant_dim v =
  { alpha = Expr.one; stride = Expr.zero; sign = 1; vars = [ v ]; uniform = true }

let whole_array (ctx : Phase.t) ~array ~size ~mix =
  {
    array;
    dims =
      [ { alpha = size; stride = Expr.one; sign = 1; vars = []; uniform = true } ];
    offset = Expr.zero;
    mix;
    exact = false;
    phi = Expr.zero;
    par_var = Option.map (fun (l : Phase.loop_info) -> l.var) ctx.par;
  }

(* One dimension of the descriptor: the contribution of loop [v] to the
   subscript [phi], read off the site's step along [v]. *)
let dim_of_loop (ctx : Phase.t) (site : Phase.site) v =
  match Phase.step site v with
  | None -> invariant_dim v
  | Some { stride = raw; _ } when Expr.is_zero raw -> invariant_dim v
  | Some { stride = raw; affine } ->
      (* A stride may legitimately evaluate to zero on degenerate
         samples (J * 2^(L-1) at J = 0): direction is decided by the
         non-negative / non-positive envelope. *)
      let sign =
        if Probe.nonneg ctx.assume raw then 1
        else if Probe.nonneg ctx.assume (Expr.neg raw) then -1
        else raise Unsupported
      in
      let hi =
        match
          List.find_opt (fun (l : Phase.loop_info) -> String.equal l.var v) ctx.loops
        with
        | Some l -> l.hi
        | None -> raise Unsupported
      in
      (* phi(hi) - phi(0): the stride times hi where phi is affine. *)
      let phi = site.phi in
      let reach =
        if affine then Expr.mul raw hi
        else Expr.sub (Expr.subst v hi phi) (Expr.subst v Expr.zero phi)
      in
      let alpha = Expr.add (Expr.div reach raw) Expr.one in
      let stride = if sign >= 0 then raw else Expr.neg raw in
      (* The stride may depend on its own index (paper's J*2^(L-1) in
         TFFT2): the LMAD is then symbolic rather than rectangular; the
         [uniform] flag lets consumers that need rectangularity (region
         expansion, upper limits) insist on it. *)
      { alpha; stride; sign; vars = [ v ]; uniform = not (Expr.mem_var v raw) }

let site_count = Metrics.counter "descriptor.ard"

let of_site (ctx : Phase.t) (site : Phase.site) : t =
  Metrics.incr site_count;
  let array = site.ref_.array in
  let mix = Access_mix.of_access site.ref_.access in
  let par_var = Option.map (fun (l : Phase.loop_info) -> l.var) ctx.par in
  try
    let dims =
      List.map (fun (l : Phase.loop_info) -> dim_of_loop ctx site l.var) ctx.loops
    in
    (* A non-uniform stride is tolerable on sequential dims (coalescing
       and range reasoning handle them - TFFT2's J*2^(L-1)), but the
       parallel dim drives every linear-in-i formula downstream:
       tau_B(i) = tau + i*delta_P.  A subscript whose own-iteration
       stride varies (e.g. quadratic in the parallel index) has no such
       form - fall back to the whole-array descriptor. *)
    (match par_var with
    | Some v ->
        List.iter2
          (fun (l : Phase.loop_info) (d : dim) ->
            if String.equal l.var v && not d.uniform then raise Unsupported)
          ctx.loops dims
    | None -> ());
    (* Offset: phi at all loop lows (0 after normalization). *)
    let offset =
      List.fold_left
        (fun e (l : Phase.loop_info) -> Expr.subst l.var Expr.zero e)
        site.phi ctx.loops
    in
    (* Normalize sequential dims to positive direction: a descending dim
       covers [tau - span, tau]; shift the offset down and flip. *)
    let offset = ref offset in
    let dims =
      List.map
        (fun d ->
          let is_par = match par_var with Some v -> List.mem v d.vars | None -> false in
          if d.sign < 0 && not is_par then begin
            offset := Expr.sub !offset (span d);
            { d with sign = 1 }
          end
          else d)
        dims
    in
    { array; dims; offset = !offset; mix; exact = true; phi = site.phi; par_var }
  with Unsupported ->
    let decl = Types.array_decl ctx.prog site.ref_.array in
    whole_array ctx ~array ~size:(Linearize.size ~dims:decl.dims) ~mix

type phase = { ctx : Phase.t; ards : t list }

let of_phase ctx = { ctx; ards = List.map (of_site ctx) ctx.Phase.sites }

let of_program (prog : Types.program) =
  List.map (fun ph -> lazy (of_phase (Phase.analyze prog ph))) prog.phases

let pp ppf t =
  let pp_dim ppf d =
    Format.fprintf ppf "(a=%a, d=%a%s)" Expr.pp d.alpha Expr.pp d.stride
      (if t.exact && d.sign < 0 then ", -" else "")
  in
  Format.fprintf ppf "%s%s[%a] + %a : %a" t.array
    (if t.exact then "" else "?")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_dim)
    t.dims Expr.pp t.offset Access_mix.pp t.mix
