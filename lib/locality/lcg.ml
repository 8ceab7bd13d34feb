open Symbolic
open Descriptor
open Ir

type node = {
  phase_idx : int;
  name : string;
  attr : Liveness.attr;
  pd : Pd.t;
  id : Id.t;
  sym : Symmetry.t;
  intra : Intra.verdict;
  par_n : int;
  par_expr : Expr.t;
  work : int;
  halo : int;
  anchor : (int * int) option;
  storage : Balance.storage list;
}

type edge = {
  src : int;
  dst : int;
  label : Table1.label;
  solution : Balance.solution option;
  relation : Balance.relation option;
  back : bool;
}

type graph = { array : string; nodes : node list; edges : edge list }

type t = {
  prog : Types.program;
  env : Env.t;
  h : int;
  graphs : graph list;
  sizes : (string * (int, Linearize.size_failure) result) list;
}

let sizes_at (prog : Types.program) env =
  List.map
    (fun (d : Types.array_decl) -> (d.name, Linearize.array_size env prog d.name))
    prog.arrays

let empty prog ~env ~h = { prog; env; h; graphs = []; sizes = sizes_at prog env }

let size (t : t) array = Result.to_option (List.assoc array t.sizes)

(* Total abstract work of a phase under the environment: closed form
   from the phase's event shapes, enumerated only as the oracle (or as
   the counted fallback when the phase is outside the fragment). *)
let phase_work prog env ph =
  Lattice.closed_or_enumerate ~stage:"lcg-work"
    ~reason:(fun () ->
      "phase " ^ ph.Types.phase_name ^ " outside affine fragment")
    ~symbolic:(fun () -> Option.map Shape.total_work (Shape.of_phase prog env ph))
    ~enum:(fun () ->
      let total = ref 0 in
      Enumerate.iter prog env ph ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work ->
          total := !total + work);
      !total)

(* Exact inclusive hull of one parallel iteration's region:
   (max_int, min_int) when empty, mirroring the enumerating fold. *)
let iteration_bounds env ~name pd par =
  Lattice.closed_or_enumerate ~stage:"lcg"
    ~reason:(fun () -> name ^ " iteration bounds")
    ~symbolic:(fun () ->
      (* Hull bounds of a union are always closed-form; Overflow means
         addresses past native range, which enumeration could not
         represent either - degrade the same way. *)
      Some
        (Option.value ~default:(max_int, min_int)
           (Setalg.bounds env pd ~par:(Some par))))
    ~enum:(fun () ->
      let tbl = Region.addresses env pd ~par:(Some par) in
      Hashtbl.fold (fun a () (lo, hi) -> (min lo a, max hi a)) tbl
        (max_int, min_int))

(* [None] when the region is empty or does not evaluate. *)
let bounds_at env ~name pd ~par =
  try
    let b = iteration_bounds env ~name pd par in
    if fst b = max_int then None else Some b
  with Region.Not_rectangular _ | Expr.Non_integral _ | Env.Unbound _ -> None

let halo env ~name pd (sym : Symmetry.t) =
  match sym.overlap with
  | Symmetry.No_overlap -> 0
  | Symmetry.Overlap _ | Symmetry.Overlap_unknown -> (
      match (bounds_at env ~name pd ~par:0, bounds_at env ~name pd ~par:1) with
      | Some (_, ul0), Some (lb1, _) -> max 0 (ul0 - lb1 + 1)
      | _ -> 0)

let build_timer = Metrics.timer "lcg.build"
let classify_timer = Metrics.timer "lcg.classify"
let edge_count = Metrics.counter "table1.edges"

let build ?ards (prog : Types.program) ~env ~h : t =
  Metrics.with_timer build_timer @@ fun () ->
  let ards = match ards with Some a -> a | None -> Ard.of_program prog in
  let attrs = Liveness.attrs prog env in
  let phase_ctxs =
    List.map2 (fun ph ards -> (ph, Phase.analyze prog ph, ards)) prog.phases ards
  in
  let works =
    List.map (fun (ph, _, _) -> phase_work prog env ph) phase_ctxs
  in
  let graphs =
    List.map
      (fun (decl : Types.array_decl) ->
        let array = decl.name in
        let attr_row = List.assoc array attrs in
        let nodes =
          List.concat
            (List.mapi
               (fun k ((ph : Types.phase), ctx, ards) ->
                 if List.mem array (Types.phase_arrays ph) then begin
                   let pd = Unionize.simplify (Pd.of_phase (Lazy.force ards) ~array) in
                   let id = Id.of_pd pd in
                   let attr = attr_row.(k) in
                   let sym = Symmetry.analyze id in
                   let anchor, storage = Balance.frame env id sym in
                   [
                     {
                       phase_idx = k;
                       name = ph.phase_name;
                       attr;
                       pd;
                       id;
                       sym;
                       intra = Intra.check ~sym ~attr;
                       par_n =
                         (try Env.eval env (Phase.par_count ctx)
                          with Expr.Non_integral _ | Env.Unbound _ -> 1);
                       par_expr = Phase.par_count ctx;
                       work = List.nth works k;
                       halo = halo env ~name:ph.phase_name pd sym;
                       anchor;
                       storage;
                     };
                   ]
                 end
                 else [])
               phase_ctxs)
        in
        let n = List.length nodes in
        let mk_edge i j back =
          let nk = List.nth nodes i and ng = List.nth nodes j in
          Metrics.incr edge_count;
          let r =
            Metrics.with_timer classify_timer @@ fun () ->
            Inter.label ~env ~h
              {
                attr_k = nk.attr;
                attr_g = ng.attr;
                id_k = nk.id;
                id_g = ng.id;
                sym_k = nk.sym;
                sym_g = ng.sym;
                nk = nk.par_n;
                ng = ng.par_n;
              }
          in
          (* A degraded (whole-array, inexact) descriptor at either
             endpoint means the regions compared above are conservative
             supersets: an L verdict would be unsound, so force such
             edges to C.  D (privatization un-coupling) stands - it is
             decided by liveness, not by descriptors. *)
          let r =
            if
              Table1.equal_label r.label Table1.L
              && not (nk.pd.Pd.exact && ng.pd.Pd.exact)
            then { Inter.label = Table1.C; solution = None; relation = None }
            else r
          in
          { src = i; dst = j; label = r.label; solution = r.solution;
            relation = r.relation; back }
        in
        let edges =
          if n <= 1 then []
          else
            List.init (n - 1) (fun i -> mk_edge i (i + 1) false)
            @ (if prog.repeats then [ mk_edge (n - 1) 0 true ] else [])
        in
        { array; nodes; edges })
      prog.arrays
  in
  { prog; env; h; graphs; sizes = sizes_at prog env }

let chains (g : graph) =
  let n = List.length g.nodes in
  if n = 0 then []
  else
    let breaks =
      List.filter_map
        (fun e ->
          if (not e.back) && Table1.equal_label e.label L then None
          else if e.back then None
          else Some e.src)
        g.edges
    in
    let rec go i current acc =
      if i >= n then List.rev (List.rev current :: acc)
      else if List.mem (i - 1) breaks then go (i + 1) [ i ] (List.rev current :: acc)
      else go (i + 1) (i :: current) acc
    in
    go 1 [ 0 ] []

let node_of_phase (g : graph) ~phase_idx =
  List.find_opt (fun n -> n.phase_idx = phase_idx) g.nodes

let pp ppf (t : t) =
  Format.fprintf ppf "@[<v>LCG (H=%d, %a)@," t.h Env.pp t.env;
  List.iter
    (fun (g : graph) ->
      Format.fprintf ppf "@[<v 2>array %s:@," g.array;
      List.iteri
        (fun i (nd : node) ->
          let out =
            List.find_opt (fun e -> e.src = i && not e.back) g.edges
          in
          Format.fprintf ppf "%-4s (%s)%s  intra=%s@," nd.name
            (Liveness.attr_to_string nd.attr)
            (match out with
            | Some e ->
                Printf.sprintf "  --%s-->" (Table1.label_to_string e.label)
            | None -> "")
            (Intra.case_to_string nd.intra.case))
        g.nodes;
      Format.fprintf ppf "@]@,")
    t.graphs;
  Format.fprintf ppf "@]"

let region_bounds (t : t) (node : node) ~par =
  bounds_at t.env ~name:node.name node.pd ~par

(* Distinct addresses in the union of the nodes' whole-phase regions.
   A region that does not evaluate answers [None] on both paths (Setalg
   raises [Not_rectangular] where Region does); an address past native
   range or a union outside the fragment falls back to enumeration. *)
let footprint (t : t) (nodes : node list) =
  try
    Some
      (Lattice.closed_or_enumerate ~stage:"footprint"
         ~reason:(fun () ->
           (match nodes with n :: _ -> n.pd.Pd.array ^ " " | [] -> "")
           ^ "footprint of "
           ^ String.concat "," (List.map (fun n -> n.name) nodes))
         ~symbolic:(fun () ->
           match
             List.concat_map (fun n -> Setalg.boxes t.env n.pd ~par:None) nodes
           with
           | boxes -> Lattice.union_card boxes
           | exception Lattice.Overflow -> None)
         ~enum:(fun () ->
           match nodes with
           | [ n ] -> Hashtbl.length (Region.addresses t.env n.pd ~par:None)
           | _ ->
               let union = Hashtbl.create 256 in
               List.iter
                 (fun n ->
                   Hashtbl.iter
                     (fun a () -> Hashtbl.replace union a ())
                     (Region.addresses t.env n.pd ~par:None))
                 nodes;
               Hashtbl.length union))
  with Region.Not_rectangular _ -> None

let to_dot (t : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph lcg {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n";
  List.iteri
    (fun gi (g : graph) ->
      Buffer.add_string buf
        (Printf.sprintf "  subgraph cluster_%d {\n    label=\"%s\";\n" gi g.array);
      List.iteri
        (fun i (n : node) ->
          Buffer.add_string buf
            (Printf.sprintf "    n%d_%d [label=\"%s (%s)\"];\n" gi i n.name
               (Liveness.attr_to_string n.attr)))
        g.nodes;
      List.iter
        (fun (e : edge) ->
          let style =
            match e.label with
            | Table1.L -> "color=green"
            | Table1.C -> "color=red, penwidth=2"
            | Table1.D -> "style=dashed, color=gray"
          in
          Buffer.add_string buf
            (Printf.sprintf "    n%d_%d -> n%d_%d [label=\"%s\", %s%s];\n" gi
               e.src gi e.dst
               (Table1.label_to_string e.label)
               style
               (if e.back then ", constraint=false" else "")))
        g.edges;
      Buffer.add_string buf "  }\n")
    t.graphs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
