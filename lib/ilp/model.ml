open Symbolic
open Locality

type locality = {
  array : string;
  k : int;
  g : int;
  a : Expr.t;
  b : Expr.t;
  c : Expr.t;
  ai : int;
  bi : int;
  ci : int;
}

type bound = { k : int; hi : int; hi_expr : Expr.t }

type storage = {
  array : string;
  k : int;
  kind : [ `Shifted | `Reverse ];
  coeff : int;
  coeff_expr : Expr.t;
  limit : int;
  limit_expr : Expr.t;
}

type t = {
  lcg : Lcg.t;
  n_phases : int;
  locality : locality list;
  bounds : bound list;
  storage : storage list;
}

let of_lcg (lcg : Lcg.t) : t =
  let env = lcg.env and h = lcg.h in
  let n_phases = List.length lcg.prog.phases in
  let locality =
    List.concat_map
      (fun (g : Lcg.graph) ->
        List.filter_map
          (fun (e : Lcg.edge) ->
            match (e.label, e.relation) with
            | Table1.L, Some r -> (
                try
                  let nk = List.nth g.nodes e.src
                  and ng = List.nth g.nodes e.dst in
                  Some
                    {
                      array = g.array;
                      k = nk.phase_idx;
                      g = ng.phase_idx;
                      a = r.a;
                      b = r.b;
                      c = r.c;
                      ai = Env.eval env r.a;
                      bi = Env.eval env r.b;
                      ci =
                        Balance.snap ~a:(Env.eval env r.a) ~b:(Env.eval env r.b)
                          (Env.eval env r.c);
                    }
                with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> None)
            | _ -> None)
          g.edges)
      lcg.graphs
  in
  (* One load-balance bound per phase that has nodes; use the smallest
     parallel count across its array views (they coincide). *)
  let bounds =
    List.init n_phases (fun k ->
        let counts =
          List.filter_map
            (fun (g : Lcg.graph) ->
              Option.map
                (fun (n : Lcg.node) -> (n.par_n, n.par_expr))
                (Lcg.node_of_phase g ~phase_idx:k))
            lcg.graphs
        in
        match counts with
        | [] -> None
        | (n, ne) :: _ ->
            Some
              {
                k;
                hi = max 1 (Lattice.cdiv n h);
                hi_expr = Expr.ceil_div ne (Expr.var "H");
              })
    |> List.filter_map Fun.id
  in
  let storage =
    List.concat_map
      (fun (g : Lcg.graph) ->
        List.concat_map
          (fun (n : Lcg.node) ->
            match Balance.side n.id with
            | None -> []
            | Some side -> (
                try
                  match Balance.reach env side with
                  | None -> []
                  | Some (dp, near) ->
                      let coeff = dp * h in
                      let coeff_expr =
                        Expr.mul side.primary.par_stride (Expr.int h)
                      in
                      let mk kind limit_expr =
                        try
                          let lim = Qnum.floor (Env.eval_q env limit_expr) in
                          if lim <= near then None
                          else
                            Some
                              {
                                array = g.array;
                                k = n.phase_idx;
                                kind;
                                coeff;
                                coeff_expr;
                                limit = Qnum.floor (Env.eval_q env limit_expr);
                                limit_expr;
                              }
                        with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> None
                      in
                      List.filter_map Fun.id
                        (List.map (fun d -> mk `Shifted d) n.sym.shifted
                        @ List.map
                            (fun d ->
                              mk `Reverse
                                (Expr.scale (Qnum.make 1 2) d))
                            n.sym.reverse)
                with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> []))
          g.nodes)
      lcg.graphs
  in
  { lcg; n_phases; locality; bounds; storage }

let pp ppf (t : t) =
  let pname k =
    (List.nth t.lcg.prog.phases k).Ir.Types.phase_name
  in
  Format.fprintf ppf "@[<v>Locality constraints:@,";
  List.iter
    (fun l ->
      let lhs =
        if Expr.equal l.a Expr.one then Printf.sprintf "p[%s]" (pname l.k)
        else Format.asprintf "%a * p[%s]" Expr.pp l.a (pname l.k)
      in
      let rhs =
        if Expr.equal l.b Expr.one then Printf.sprintf "p[%s]" (pname l.g)
        else Format.asprintf "%a * p[%s]" Expr.pp l.b (pname l.g)
      in
      Format.fprintf ppf "  [%s] %s = %s%s@," l.array lhs rhs
        (if Expr.is_zero l.c then ""
         else Format.asprintf " + %a" Expr.pp l.c))
    t.locality;
  Format.fprintf ppf "Load-balance constraints:@,";
  List.iter
    (fun (b : bound) ->
      Format.fprintf ppf "  1 <= p[%s] <= %a = %d@," (pname b.k) Expr.pp
        b.hi_expr b.hi)
    t.bounds;
  Format.fprintf ppf
    "Affinity constraints: implicit (one variable per phase; the@,\
    \  paper's p_k1 = p_k2 = ... rows are folded into p_k)@,";
  Format.fprintf ppf "Storage constraints:@,";
  List.iter
    (fun (s : storage) ->
      Format.fprintf ppf "  [%s] %a * p[%s] <= %a  (%s, = %d)@," s.array
        Expr.pp s.coeff_expr (pname s.k) Expr.pp s.limit_expr
        (match s.kind with `Shifted -> "Delta_d" | `Reverse -> "Delta_r/2")
        s.limit)
    t.storage;
  Format.fprintf ppf "@]"
