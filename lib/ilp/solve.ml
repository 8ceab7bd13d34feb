open Locality

type result = {
  p : int array;
  d_cost : float;
  c_cost : float;
  objective : float;
  broken : (string * int * int) list;
  budget_exhausted : bool;
}

(* Cap on the representative values enumerated per component; a
   component whose feasible window extends past it is only partially
   searched, which the result records as budget exhaustion. *)
let t_budget = 200_000

(* Footprint (distinct addresses) of one phase's accesses to one array:
   the word volume a C edge into that phase redistributes. *)
let communication_words (lcg : Lcg.t) ~array ~phase_idx =
  match
    List.find_opt (fun (g : Lcg.graph) -> String.equal g.array array) lcg.graphs
  with
  | None -> 0
  | Some g -> (
      match Lcg.node_of_phase g ~phase_idx with
      | None -> 0
      | Some node -> (
          let whole_array () =
            try
              Symbolic.Env.eval lcg.env
                (Ir.Linearize.size
                   ~dims:(Ir.Types.array_decl lcg.prog array).dims)
            with
            | Symbolic.Expr.Non_integral _ | Symbolic.Env.Unbound _
            | Symbolic.Qnum.Overflow ->
                0
          in
          let enum () =
            try
              Hashtbl.length
                (Descriptor.Region.addresses lcg.env node.pd ~par:None)
            with Descriptor.Region.Not_rectangular _ -> whole_array ()
          in
          Symbolic.Lattice.closed_or_enumerate ~stage:"solve-words"
            ~reason:(fun () -> array ^ " region volume")
            ~symbolic:(fun () ->
              (* Setalg mirrors enumeration's Not_rectangular failures,
                 so the whole-array degradation fires identically. *)
              try Descriptor.Setalg.card lcg.env node.pd ~par:None
              with Descriptor.Region.Not_rectangular _ ->
                Some (whole_array ()))
            ~enum))

(* The affine-rational value of a variable in terms of the component
   representative t: p = (num * t + off) / den. *)
type affine = { num : int; off : int; den : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Keep affines in lowest terms with positive denominator so that equal
   rationals compare structurally equal. *)
let reduce (a : affine) =
  let s = if a.den < 0 then -1 else 1 in
  let g = gcd (gcd a.num a.off) a.den in
  let g = if g = 0 then 1 else g * s in
  { num = a.num / g; off = a.off / g; den = a.den / g }

let eval_affine (a : affine) t =
  let v = (a.num * t) + a.off in
  if v mod a.den <> 0 then None else Some (v / a.den)

let solve_timer = Symbolic.Metrics.timer "ilp.solve"

let solve (model : Model.t) (m : Cost.machine) : result =
  Symbolic.Metrics.with_timer solve_timer @@ fun () ->
  let lcg = model.lcg in
  let n = model.n_phases in
  let bound = Array.make n 1 in
  List.iter (fun (b : Model.bound) -> bound.(b.k) <- b.hi) model.bounds;
  (* Adjacency from locality equalities: a p_k = b p_g + c. *)
  let adj = Array.make n [] in
  List.iter
    (fun (l : Model.locality) ->
      adj.(l.k) <- (l.g, `Fwd l) :: adj.(l.k);
      adj.(l.g) <- (l.k, `Bwd l) :: adj.(l.g))
    model.locality;
  let comp = Array.make n (-1) in
  let exprs : affine array = Array.make n { num = 1; off = 0; den = 1 } in
  let broken = ref [] in
  let n_comp = ref 0 in
  (* BFS assigning affine expressions in t per component. *)
  for root = 0 to n - 1 do
    if comp.(root) < 0 then begin
      let c = !n_comp in
      incr n_comp;
      comp.(root) <- c;
      exprs.(root) <- { num = 1; off = 0; den = 1 };
      let q = Queue.create () in
      Queue.add root q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun (v, rel) ->
            let derived =
              reduce @@
              (* from p_u = (nu t + ou)/du *)
              let e = exprs.(u) in
              match rel with
              | `Fwd (l : Model.locality) ->
                  (* a p_u = b p_v + c  =>  p_v = (a p_u - c) / b *)
                  {
                    num = l.ai * e.num;
                    off = (l.ai * e.off) - (l.ci * e.den);
                    den = l.bi * e.den;
                  }
              | `Bwd (l : Model.locality) ->
                  (* a p_v = b p_u + c  =>  p_v = (b p_u + c) / a *)
                  {
                    num = l.bi * e.num;
                    off = (l.bi * e.off) + (l.ci * e.den);
                    den = l.ai * e.den;
                  }
            in
            if comp.(v) < 0 then begin
              comp.(v) <- c;
              exprs.(v) <- derived;
              Queue.add v q
            end
            else if exprs.(v) <> derived then begin
              (* Inconsistent cycle: give up on this relation. *)
              let (l : Model.locality) =
                match rel with `Fwd l | `Bwd l -> l
              in
              broken := (l.array, l.k, l.g) :: !broken
            end)
          adj.(u)
      done
    end
  done;
  (* Storage constraints indexed per phase. *)
  let storage_of = Array.make n [] in
  List.iter
    (fun (s : Model.storage) -> storage_of.(s.k) <- s :: storage_of.(s.k))
    model.storage;
  let nodes_of_phase k =
    List.concat_map
      (fun (g : Lcg.graph) ->
        match Lcg.node_of_phase g ~phase_idx:k with
        | Some nd -> [ (g.array, nd) ]
        | None -> [])
      lcg.graphs
  in
  let array_written =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (g : Lcg.graph) ->
        if
          List.exists
            (fun (nd : Lcg.node) ->
              match nd.attr with
              | Ir.Liveness.W | Ir.Liveness.RW | Ir.Liveness.P -> true
              | Ir.Liveness.R -> false)
            g.nodes
        then Hashtbl.replace tbl g.array ())
      lcg.graphs;
    fun a -> Hashtbl.mem tbl a
  in
  (* The t-search below prices every candidate chunking, so the
     per-phase constants (lead node, halo widths, written flags) are
     hoisted out of the loop; only the p-dependent arithmetic stays
     inside. *)
  let phase_nodes = Array.init n nodes_of_phase in
  let frontier_terms =
    Array.map
      (fun nodes ->
        List.filter_map
          (fun (array, (nd : Lcg.node)) ->
            let w = Lcg.halo lcg nd in
            if w > 0 && array_written array then Some (nd.par_n, w) else None)
          nodes)
      phase_nodes
  in
  let d_cost_of k p =
    match phase_nodes.(k) with
    | [] -> 0.0
    | (_, node) :: _ ->
        let imbalance =
          Cost.load_imbalance ~n:node.par_n ~p ~h:m.h ~work:node.work
        in
        (* Frontier traffic: each processor owns ~n/(pH) blocks and per
           writing phase ships two strip messages per block (the
           per-processor costing of Exec.event_time). *)
        let frontier =
          List.fold_left
            (fun acc (par_n, w) ->
              let blocks_per_proc =
                float_of_int par_n
                /. float_of_int (max 1 p)
                /. float_of_int m.h
              in
              acc
              +. (blocks_per_proc
                  *. float_of_int ((2 * m.t_startup) + (4 * w * m.t_word))))
            0.0 frontier_terms.(k)
        in
        imbalance +. frontier
  in
  let feasible_p k p =
    p >= 1 && p <= bound.(k)
    && List.for_all
         (fun (s : Model.storage) -> s.coeff * p <= s.limit)
         storage_of.(k)
  in
  (* Choose t per component minimizing the component's D cost. *)
  let p = Array.make n 1 in
  let budget_exhausted = ref false in
  for c = 0 to !n_comp - 1 do
    let members = List.filter (fun k -> comp.(k) = c) (List.init n Fun.id) in
    let best = ref None in
    let t_max =
      List.fold_left
        (fun acc k ->
          let e = exprs.(k) in
          if e.num = 0 then acc
          else
            (* p_k <= bound implies t <= (bound*den - off)/num *)
            min acc (((bound.(k) * abs e.den) - e.off) / abs e.num))
        1_000_000 members
    in
    if t_max > t_budget then budget_exhausted := true;
    for t = 1 to min t_max t_budget do
      let vals =
        List.map (fun k -> (k, eval_affine exprs.(k) t)) members
      in
      if List.for_all (function _, Some v -> v >= 1 | _, None -> false) vals
      then begin
        let vals = List.map (function k, Some v -> (k, v) | _ -> assert false) vals in
        if List.for_all (fun (k, v) -> feasible_p k v) vals then begin
          let cost =
            List.fold_left (fun acc (k, v) -> acc +. d_cost_of k v) 0.0 vals
          in
          match !best with
          | Some (bc, _) when bc <= cost -> ()
          | _ -> best := Some (cost, vals)
        end
      end
    done;
    match !best with
    | Some (_, vals) -> List.iter (fun (k, v) -> p.(k) <- v) vals
    | None ->
        (* No consistent t: fall back to p=1 and record every L edge
           within the component as broken. *)
        List.iter (fun k -> p.(k) <- min 1 bound.(k)) members;
        List.iter
          (fun (l : Model.locality) ->
            if comp.(l.k) = c then broken := (l.array, l.k, l.g) :: !broken)
          model.locality
  done;
  (* Costs. *)
  let d_cost =
    List.fold_left
      (fun acc k -> acc +. d_cost_of k p.(k))
      0.0
      (List.init n Fun.id)
  in
  let c_edge_cost (g : Lcg.graph) (e : Lcg.edge) =
    let dst = List.nth g.nodes e.dst in
    let words = communication_words lcg ~array:g.array ~phase_idx:dst.phase_idx in
    match dst.sym.overlap with
    | Descriptor.Symmetry.No_overlap -> Cost.redistribution m ~words
    | _ -> Cost.redistribution m ~words +. Cost.frontier m ~words
  in
  let c_cost =
    List.fold_left
      (fun acc (g : Lcg.graph) ->
        List.fold_left
          (fun acc (e : Lcg.edge) ->
            match e.label with
            | Table1.C -> acc +. c_edge_cost g e
            | Table1.L ->
                let nk = (List.nth g.nodes e.src).phase_idx
                and ng = (List.nth g.nodes e.dst).phase_idx in
                if List.mem (g.array, nk, ng) !broken then
                  acc +. c_edge_cost g e
                else acc
            | Table1.D -> acc)
          acc g.edges)
      0.0 lcg.graphs
  in
  { p; d_cost; c_cost; objective = d_cost +. c_cost; broken = !broken;
    budget_exhausted = !budget_exhausted }
