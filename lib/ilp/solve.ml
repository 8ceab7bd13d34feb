open Locality

type result = {
  p : int array;
  d_cost : float;
  c_cost : float;
  objective : float;
  broken : broken list;
  budget_exhausted : bool;
}

and broken = Locality of string * int * int | Storage of Model.storage

(* Widest representative window the plan stage can tally: a component
   whose window extends past it is still minimized exactly, but the
   result flags it so the pipeline ships the BLOCK plan instead. *)
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
            Result.value
              (Ir.Linearize.array_size lcg.env lcg.prog array)
              ~default:0
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

let pp_broken (model : Model.t) ppf = function
  | Storage s ->
      Format.fprintf ppf "storage-unmeetable: %a: %d > %d, p[%s] capped at 1"
        (Model.pp_storage model) s s.coeff s.limit (Model.phase_name model s.k)
  | Locality (array, k, g) ->
      Format.fprintf ppf
        "locality-violated: [%s] L edge p[%s] -> p[%s], priced as an extra C edge"
        array (Model.phase_name model k) (Model.phase_name model g)

let pp model ppf r =
  Format.fprintf ppf "@[<v>objective %.1f (D %.1f + C %.1f)" r.objective r.d_cost
    r.c_cost;
  List.iter (Format.fprintf ppf "@,broken %a" (pp_broken model)) r.broken;
  Format.fprintf ppf "@]"

type affine = { num : int; off : int; den : int }

let gcd = Symbolic.Lattice.gcd
let fdiv = Symbolic.Lattice.fdiv
let cdiv = Symbolic.Lattice.cdiv

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

type member = {
  phase : int;
  expr : affine;
  bound : int;
  cap : int;
  lead : (int * int) option;
  frontier : (int * int) list;
}

type component = { members : member list; t_max : int }

let member_cost (m : Cost.machine) mem p =
  match mem.lead with
  | None -> 0.0
  | Some (n, work) ->
      let imbalance = Cost.load_imbalance ~n ~p ~h:m.h ~work in
      (* Frontier traffic: each processor owns ~n/(pH) blocks and per
         writing phase ships two strip messages per block (the
         per-processor costing of Exec.event_time). *)
      let frontier =
        List.fold_left
          (fun acc (par_n, w) ->
            let blocks_per_proc =
              float_of_int par_n /. float_of_int (max 1 p) /. float_of_int m.h
            in
            acc
            +. (blocks_per_proc
               *. float_of_int ((2 * m.t_startup) + (4 * w * m.t_word))))
          0.0 mem.frontier
      in
      imbalance +. frontier

let pmod a m = ((a mod m) + m) mod m

(* The inverse of [a] modulo [m], for [a] and [m] coprime. *)
let inverse a m =
  let _, x, _ = Symbolic.Lattice.egcd a m in
  pmod x m

(* The t at which [e] is integral, as the class t = r (mod l). *)
let residue (e : affine) =
  let a = pmod e.num e.den and b = pmod (-e.off) e.den in
  let g = gcd a e.den in
  if b mod g <> 0 then None
  else
    let l = e.den / g in
    Some (pmod (b / g * inverse (a / g) l) l, l)

(* Chinese remaindering for moduli that need not be coprime. *)
let meet (r1, l1) (r2, l2) =
  let g = gcd l1 l2 in
  if (r2 - r1) mod g <> 0 then None
  else
    let l2' = l2 / g in
    let k = pmod ((r2 - r1) / g * inverse (pmod (l1 / g) l2') l2') l2' in
    let l = l1 * l2' in
    Some (pmod (r1 + (l1 * k)) l, l)

(* The t at which a member's p = (num t + off) / den, where integral,
   lies within its bound and storage cap and is at least 1. *)
let t_window mem =
  let lo = 1 and hi = min mem.bound mem.cap in
  let { num; off; den } = mem.expr in
  if num > 0 then (cdiv ((lo * den) - off) num, fdiv ((hi * den) - off) num)
  else if num < 0 then (cdiv (off - (hi * den)) (-num), fdiv (off - (lo * den)) (-num))
  else if lo * den <= off && off <= hi * den then (min_int, max_int)
  else (1, 0)

(* The chunk sizes s in (lo, hi] at which a member's load term changes
   formula: the starts of the blocks of constant q = floor(n / (p h)),
   and within each block the first p past the switch of
   min(p, n mod (p h)) from p to the remainder. *)
let load_breaks ~n ~h ~lo ~hi =
  let nh = n / h in
  let rec go p acc =
    let q = nh / p in
    let last = if q = 0 then hi else min hi (nh / q) in
    let switch = (n / (1 + (q * h))) + 1 in
    let acc = if switch > p && switch <= last then switch :: acc else acc in
    if last < hi then go (last + 1) ((last + 1) :: acc) else acc
  in
  if lo >= hi then [] else go lo []

let candidates = Symbolic.Metrics.counter "solve.candidates"

let argmin (m : Cost.machine) (c : component) =
  let h = m.h in
  let members = Array.of_list c.members in
  let progression =
    Array.fold_left
      (fun acc mem ->
        match acc with
        | None -> None
        | Some rl -> Option.bind (residue mem.expr) (meet rl))
      (Some (0, 1)) members
  in
  match progression with
  | None -> None
  | Some (r, l) ->
      let lo, hi =
        Array.fold_left
          (fun (lo, hi) mem ->
            let a, b = t_window mem in
            (max lo a, min hi b))
          (1, c.t_max) members
      in
      let up t = t + pmod (r - t) l and down t = t - pmod (t - r) l in
      let first = up lo and last = down hi in
      if first > last then None
      else begin
        let p_at mem t = ((mem.expr.num * t) + mem.expr.off) / mem.expr.den in
        (* Cut points: the t at which some member's p enters a new
           load piece. *)
        let cuts =
          Array.fold_left
            (fun acc mem ->
              match mem.lead with
              | Some (n, work) when n > 0 && work > 0 && mem.expr.num <> 0 ->
                  let { num; off; den } = mem.expr in
                  let pa = p_at mem first and pb = p_at mem last in
                  List.fold_left
                    (fun acc s ->
                      (if num > 0 then cdiv ((s * den) - off) num
                       else fdiv (off - (s * den)) (-num) + 1)
                      :: acc)
                    acc
                    (load_breaks ~n ~h ~lo:(min pa pb) ~hi:(max pa pb))
              | _ -> acc)
            [] members
          |> List.filter (fun t -> t > first && t <= last)
          |> List.sort_uniq compare
        in
        (* The real cost on a piece is sum_k load_k(p_k) + K_k / p_k
           with each load_k affine in p_k, so its t-derivative is
           sum_k dp_k/dt (slope_k - K_k / p_k^2). *)
        let rate =
          Array.map
            (fun mem -> float_of_int mem.expr.num /. float_of_int mem.expr.den)
            members
        and hyperbola =
          Array.map
            (fun mem ->
              List.fold_left
                (fun acc (par_n, w) ->
                  acc
                  +. float_of_int par_n
                     *. float_of_int ((2 * m.t_startup) + (4 * w * m.t_word))
                     /. float_of_int h)
                0.0 mem.frontier)
            members
        in
        (* d load / dp on the piece holding p: q + 1 while p <= the
           remainder n mod (p h), else -q (h - 1). *)
        let load_slope mem p =
          match mem.lead with
          | Some (n, work) when n > 0 && work > 0 ->
              let q = n / (p * h) in
              let per_p = if p <= n - (q * p * h) then q + 1 else -(q * (h - 1)) in
              float_of_int work /. float_of_int n *. float_of_int per_p
          | _ -> 0.0
        in
        let derivative t0 =
          let slope = Array.map (fun mem -> load_slope mem (p_at mem t0)) members in
          fun t ->
            let d = ref 0.0 in
            Array.iteri
              (fun i mem ->
                let p =
                  ((float_of_int mem.expr.num *. t) +. float_of_int mem.expr.off)
                  /. float_of_int mem.expr.den
                in
                d := !d +. (rate.(i) *. (slope.(i) -. (hyperbola.(i) /. (p *. p)))))
              members;
            !d
        in
        let best = ref None in
        let visit t =
          Symbolic.Metrics.incr candidates;
          let cost =
            Array.fold_left
              (fun acc mem -> acc +. member_cost m mem (p_at mem t))
              0.0 members
          in
          match !best with
          | Some (bc, _) when bc <= cost -> ()
          | _ -> best := Some (cost, t)
        in
        (* The piece [a, b] in ascending t: its first and last feasible
           points and, when the convex cost turns from falling to rising
           inside, the feasible points either side of the turn. *)
        let piece a b =
          let fa = up a and fb = down b in
          if fa <= fb then begin
            visit fa;
            if fb > fa then begin
              let d = derivative fa in
              let at i = fa + (i * l) in
              if d (float_of_int fa) < 0.0 && d (float_of_int fb) > 0.0 then begin
                let rec bisect i j =
                  if j - i <= 1 then (i, j)
                  else
                    let mid = (i + j) / 2 in
                    if d (float_of_int (at mid)) < 0.0 then bisect mid j
                    else bisect i mid
                in
                let i, j = bisect 0 ((fb - fa) / l) in
                if at i > fa then visit (at i);
                if at j < fb then visit (at j)
              end;
              visit fb
            end
          end
        in
        let a =
          List.fold_left
            (fun a cut ->
              piece a (cut - 1);
              cut)
            first cuts
        in
        piece a last;
        Option.map snd !best
      end

let solve_timer = Symbolic.Metrics.timer "ilp.solve"

let solve_with ~argmin (model : Model.t) (m : Cost.machine) : result =
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
  (* An inconsistent cycle is met from both ends of its edge: record
     each edge once. *)
  let blame (l : Model.locality) =
    let b = Locality (l.array, l.k, l.g) in
    if not (List.mem b !broken) then broken := b :: !broken
  in
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
              match rel with `Fwd l | `Bwd l -> blame l
            end)
          adj.(u)
      done
    end
  done;
  (* Storage caps per phase.  A row no chunk meets (coeff > limit) caps
     its phase at p = 1 and is reported broken, so the component's L
     edges are not blamed for it. *)
  let cap = Array.make n max_int in
  let unmet =
    List.filter_map
      (fun (s : Model.storage) ->
        cap.(s.k) <- min cap.(s.k) (max 1 (fdiv s.limit s.coeff));
        if s.coeff > s.limit then Some (Storage s) else None)
      model.storage
  in
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
  let member k =
    let nodes = nodes_of_phase k in
    {
      phase = k;
      expr = exprs.(k);
      bound = bound.(k);
      cap = cap.(k);
      lead =
        (match nodes with
        | [] -> None
        | (_, (nd : Lcg.node)) :: _ -> Some (nd.par_n, nd.work));
      frontier =
        List.filter_map
          (fun (array, (nd : Lcg.node)) ->
            if nd.halo > 0 && array_written array then Some (nd.par_n, nd.halo)
            else None)
          nodes;
    }
  in
  let members = Array.init n member in
  (* Choose t per component minimizing the component's D cost. *)
  let p = Array.make n 1 in
  let budget_exhausted = ref false in
  for c = 0 to !n_comp - 1 do
    let members =
      List.filter (fun mem -> comp.(mem.phase) = c) (Array.to_list members)
    in
    let t_max =
      List.fold_left
        (fun acc mem ->
          let e = mem.expr in
          if e.num = 0 then acc
          else
            (* p_k <= bound implies t <= (bound*den - off)/num *)
            min acc (((mem.bound * abs e.den) - e.off) / abs e.num))
        max_int members
    in
    if t_max > t_budget then budget_exhausted := true;
    match argmin m { members; t_max } with
    | Some t ->
        List.iter
          (fun mem -> p.(mem.phase) <- Option.get (eval_affine mem.expr t))
          members
    | None ->
        (* No consistent t: fall back to p=1 and record every L edge
           within the component as broken. *)
        List.iter (fun mem -> p.(mem.phase) <- min 1 mem.bound) members;
        List.iter
          (fun (l : Model.locality) -> if comp.(l.k) = c then blame l)
          model.locality
  done;
  (* Costs. *)
  let d_cost =
    Array.fold_left (fun acc mem -> acc +. member_cost m mem p.(mem.phase)) 0.0 members
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
                if List.mem (Locality (g.array, nk, ng)) !broken then
                  acc +. c_edge_cost g e
                else acc
            | Table1.D -> acc)
          acc g.edges)
      0.0 lcg.graphs
  in
  { p; d_cost; c_cost; objective = d_cost +. c_cost; broken = unmet @ !broken;
    budget_exhausted = !budget_exhausted }

let solve = solve_with ~argmin
