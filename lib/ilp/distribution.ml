open Symbolic
open Locality

type layout = {
  array : string;
  first_phase : int;
  last_phase : int;
  base : int;
  block : int;
  period : int option;
  mirror : int option;
  halo : int;
}

type plan = {
  h : int;
  chunk : int array;
  layouts : layout list;
  privatized : (int * string) list;
}

let proc_at ~h (l : layout) addr =
  Lattice.Own.owner_at ~h ~base:l.base ~block:l.block ~period:l.period
    ~mirror:l.mirror addr

let proc_of (plan : plan) l ~addr = proc_at ~h:plan.h l addr

let layout_for (plan : plan) ~array ~phase_idx =
  List.find_opt
    (fun l ->
      String.equal l.array array
      && phase_idx >= l.first_phase
      && phase_idx <= l.last_phase)
    plan.layouts

let placement (plan : plan) ~array ~phase_idx =
  if List.mem (phase_idx, array) plan.privatized then None
  else layout_for plan ~array ~phase_idx

let proc_of_iteration = Owncount.proc_of_iteration

(* The chunks are the classes of the floored quotient [q = i / c],
   chunk [q] spanning [q c .. q c + c - 1], owned when [q mod h = me]
   (Euclidean modulus). *)
let own_chunks ~chunk ~h ~me ~lo ~hi f =
  let c = Int.max 1 chunk in
  if lo <= hi then begin
    let q0 = Lattice.fdiv lo c and q1 = Lattice.fdiv hi c in
    let q = ref (q0 + ((((me - q0) mod h) + h) mod h)) in
    while !q <= q1 do
      let a = !q * c in
      f (Int.max lo a) (Int.min hi (a + c - 1));
      q := !q + h
    done
  end

let halo_window (l : layout) = min l.halo l.block

let fully_replicated lcg (l : layout) =
  l.halo > 0
  && match Lcg.size lcg l.array with Some s -> l.halo >= s | None -> false

let own_of ~h (l : layout) : Lattice.Own.t =
  {
    Lattice.Own.h;
    base = l.base;
    block = l.block;
    period = l.period;
    mirror = l.mirror;
  }

let read_is_local lcg plan (l : layout) ~proc =
  let o = own_of ~h:plan.h l in
  let owned x = Lattice.Own.owner o x = proc in
  if l.halo = 0 then owned
  else if fully_replicated lcg l then fun _ -> true
  else
    let w = halo_window l in
    fun x -> owned x || owned (x - w) || owned (x + w)

(* {1 The per-processor tally} *)

type tally = { reads : Owncount.counts; writes : Owncount.counts }

(* Fresh per-processor counters, except that each count nothing will
   add to ([used] false, or the ghost count without [ghost]) shares the
   caller's [zeros]: at large H these arrays are most of what a tally
   allocates. *)
let counts ~zeros ~used ~ghost =
  let z () = if used then Array.make (Array.length zeros) 0 else zeros in
  let g = if ghost then z () else zeros in
  { Owncount.events = z (); owned = z (); ghost = g; work = z () }

let rec placement_index placed array i =
  if i >= Array.length placed then -1
  else if String.equal (fst placed.(i)) array then i
  else placement_index placed array (i + 1)

(* Both tallies bill this timer, so a profile shows the share of the
   plan and of the simulator spent counting. *)
let tally_timer = Metrics.timer "distribution.tally"

(* One pass over the enumerated events: nothing is allocated per event
   (the placements are scanned as an array, not hashed), since this is
   the enumeration the layout search falls back to. *)
let tally_enum (lcg : Lcg.t) ph ~chunk ~h placements =
  Metrics.with_timer tally_timer @@ fun () ->
  let placed = Array.of_list placements in
  let zeros = Array.make h 0 in
  let fresh ~ghost = counts ~zeros ~used:true ~ghost in
  let tallies =
    Array.map
      (fun _ -> { reads = fresh ~ghost:true; writes = fresh ~ghost:false })
      placed
  in
  Ir.Enumerate.iter lcg.prog lcg.env ph
    ~f:(fun ~par ~array ~addr access ~work ->
      let i = placement_index placed array 0 in
      if i >= 0 then begin
        let proc =
          match par with Some it -> proc_of_iteration ~chunk ~h it | None -> 0
        in
        let c =
          match access with
          | Ir.Types.Read -> tallies.(i).reads
          | Ir.Types.Write -> tallies.(i).writes
        in
        c.events.(proc) <- c.events.(proc) + 1;
        c.work.(proc) <- c.work.(proc) + work;
        match snd placed.(i) with
        | None -> c.owned.(proc) <- c.owned.(proc) + 1
        | Some l ->
            if proc_at ~h l addr = proc then
              c.owned.(proc) <- c.owned.(proc) + 1
            else if l.halo > 0 && Ir.Types.equal_access access Read then begin
              let w = halo_window l in
              if
                proc_at ~h l (addr - w) = proc
                || proc_at ~h l (addr + w) = proc
              then c.ghost.(proc) <- c.ghost.(proc) + 1
            end
      end);
  tallies

(* The same counts in closed form: every site is counted by window
   sweeps against ownership sets (and ghost zones when the layout has a
   halo and the array is read) built over one chunk run's hull at a
   time, one rotation class at a time.  An array placed nowhere owns
   every access. *)
let tally_symbolic ?(split = true) (lcg : Lcg.t) k ~chunk ~h placements =
  Metrics.with_timer tally_timer @@ fun () ->
  match Lcg.shape lcg k with
  | None -> None
  | Some t -> (
      let exception Subtle in
      let zeros = Array.make (if split then h else 1) 0 in
      let tally (array, placement) =
        let sites = Ir.Shape.on_array t array in
        let has access =
          List.exists
            (fun (s : Ir.Shape.site) -> Ir.Types.equal_access s.access access)
            sites
        in
        let own = Option.map (own_of ~h) placement in
        let window =
          match placement with
          | Some l when l.halo > 0 && has Read -> halo_window l
          | _ -> 0
        in
        let tl =
          {
            reads = counts ~zeros ~used:(has Read) ~ghost:(window > 0);
            writes = counts ~zeros ~used:(has Write) ~ghost:false;
          }
        in
        List.iter
          (fun (s : Ir.Shape.site) ->
            let c, window =
              match s.access with
              | Ir.Types.Read -> (tl.reads, window)
              | Ir.Types.Write -> (tl.writes, 0)
            in
            if not (Owncount.per_proc ~chunk ~h t s ~own ~window c) then
              raise Subtle)
          sites;
        tl
      in
      try Some (Array.of_list (List.map tally placements))
      with Subtle | Lattice.Overflow -> None)

let sum = Array.fold_left ( + ) 0

(* All of [f]'s answers, or [None] from the first that has none (the
   rest are not asked). *)
let rec all_some f = function
  | [] -> Some []
  | x :: rest ->
      Option.bind (f x) (fun y -> Option.map (List.cons y) (all_some f rest))

(* The phases [first..last] of an epoch, with their indices. *)
let epoch_phases (lcg : Lcg.t) (l : layout) =
  List.filteri
    (fun k _ -> k >= l.first_phase && k <= l.last_phase)
    (List.mapi (fun k ph -> (k, ph)) lcg.prog.phases)

(* Remote accesses layout [l] induces for its array in phase
   [phase_idx], given the plan's CYCLIC(p) schedules; halos are not
   credited. *)
let remote_count (lcg : Lcg.t) (plan : plan) (l : layout) ~phase_idx =
  let ph = List.nth lcg.prog.phases phase_idx in
  let chunk = plan.chunk.(phase_idx) and h = plan.h in
  let placements = [ (l.array, Some { l with halo = 0 }) ] in
  let remote tallies =
    let t = tallies.(0) in
    sum t.reads.events - sum t.reads.owned + sum t.writes.events
    - sum t.writes.owned
  in
  Lattice.closed_or_enumerate ~stage:"distribution"
    ~reason:(fun () -> l.array ^ " remote count")
    ~symbolic:(fun () ->
      Option.map remote
        (tally_symbolic ~split:false lcg phase_idx ~chunk ~h placements))
    ~enum:(fun () -> remote (tally_enum lcg ph ~chunk ~h placements))

(* Arrays a phase writes (with at least one event), sorted. *)
let phase_writes_enum (lcg : Lcg.t) ph =
  let written = Hashtbl.create 4 in
  Ir.Enumerate.iter lcg.prog lcg.env ph
    ~f:(fun ~par:_ ~array ~addr:_ access ~work:_ ->
      match access with
      | Ir.Types.Write -> Hashtbl.replace written array ()
      | Ir.Types.Read -> ());
  Hashtbl.fold (fun a () acc -> a :: acc) written [] |> List.sort_uniq compare

let phase_writes_symbolic (lcg : Lcg.t) k =
  Option.map
    (fun (t : Ir.Shape.t) ->
      List.sort_uniq compare
        (List.filter_map
           (fun (s : Ir.Shape.site) ->
             match s.access with
             | Ir.Types.Write when Ir.Shape.emits t s -> Some s.array
             | Ir.Types.Write | Ir.Types.Read -> None)
           t.sites))
    (Lcg.shape lcg k)

(* Does any phase of the layout's epoch write the array?  Every phase
   is asked, in both accountings. *)
let epoch_written (lcg : Lcg.t) (l : layout) =
  let phases = epoch_phases lcg l in
  let any writes = List.exists (List.mem l.array) writes in
  Lattice.closed_or_enumerate ~stage:"distribution"
    ~reason:(fun () -> l.array ^ " epoch writes")
    ~symbolic:(fun () ->
      Option.map any (all_some (fun (k, _) -> phase_writes_symbolic lcg k) phases))
    ~enum:(fun () -> any (List.map (fun (_, ph) -> phase_writes_enum lcg ph) phases))

(* Ghost-zone payoff of a candidate layout: remote reads the halo would
   serve locally, and how many of the epoch's phases write the array
   (each such phase ships frontier updates).  Only partial halos are
   priced, so full replication never applies here. *)
let halo_savings (lcg : Lcg.t) (plan0 : plan) ~p (l : layout) =
  let h = plan0.h in
  let phases = epoch_phases lcg l in
  let placements = [ (l.array, Some l) ] in
  let payoff tallies =
    List.fold_left
      (fun (saved, writing) (t : tally array) ->
        ( saved + sum t.(0).reads.ghost,
          if sum t.(0).writes.events > 0 then writing + 1 else writing ))
      (0, 0) tallies
  in
  Lattice.closed_or_enumerate ~stage:"distribution"
    ~reason:(fun () -> l.array ^ " halo payoff")
    ~symbolic:(fun () ->
      Option.map payoff
        (all_some
           (fun (k, _) ->
             tally_symbolic ~split:false lcg k ~chunk:p.(k) ~h placements)
           phases))
    ~enum:(fun () ->
      payoff
        (List.map
           (fun (k, ph) -> tally_enum lcg ph ~chunk:p.(k) ~h placements)
           phases))

let of_solution (lcg : Lcg.t) ~p : plan =
  let h = lcg.h in
  let privatized =
    List.concat_map
      (fun (g : Lcg.graph) ->
        List.filter_map
          (fun (n : Lcg.node) ->
            if Ir.Liveness.equal_attr n.attr Ir.Liveness.P then
              Some (n.phase_idx, g.array)
            else None)
          g.nodes)
      lcg.graphs
  in
  let plan0 = { h; chunk = p; layouts = []; privatized } in
  let layouts =
    List.concat_map
      (fun (g : Lcg.graph) ->
        let chains = Lcg.chains g in
        (* A chain made only of privatizable nodes accesses private
           copies: it needs no layout epoch of its own (opening one
           would force useless redistributions around it). *)
        let chains =
          List.filter
            (fun chain ->
              not
                (List.for_all
                   (fun pos ->
                     Ir.Liveness.equal_attr (List.nth g.nodes pos).Lcg.attr
                       Ir.Liveness.P)
                   chain))
            chains
        in
        let n_phases = List.length lcg.prog.phases in
        List.mapi
          (fun ci chain ->
            let head_pos = List.hd chain in
            let head = List.nth g.nodes head_pos in
            let last_pos = List.nth chain (List.length chain - 1) in
            let first_phase = if ci = 0 then 0 else head.phase_idx in
            let last_phase =
              if last_pos = List.length g.nodes - 1 then n_phases - 1
              else (List.nth g.nodes (last_pos + 1)).Lcg.phase_idx - 1
            in
            let chain_nodes = List.map (List.nth g.nodes) chain in
            let halo =
              List.fold_left
                (fun acc (n : Lcg.node) -> max acc n.halo)
                0 chain_nodes
            in
            let layout ~base ~block =
              { array = g.array; first_phase; last_phase; base; block;
                period = None; mirror = None; halo }
            in
            let fallback =
              (* an array whose size does not evaluate gets a block of 1 *)
              let size = Option.value (Lcg.size lcg g.array) ~default:1 in
              layout ~base:0 ~block:(max 1 (Lattice.cdiv size h))
            in
            match head.anchor with
            | None -> fallback
            | Some (tau, dp) -> (
                try
                  let plain = layout ~base:tau ~block:(max 1 (dp * p.(head.phase_idx))) in
                  (* Candidate shifted / reverse refinements: the
                     storage distances of every chain node. *)
                  let dists kind =
                    List.concat_map (fun (n : Lcg.node) -> n.storage) chain_nodes
                    |> List.filter_map (fun (f : Balance.storage) ->
                           if f.kind = kind then Some f.dist else None)
                    |> List.sort_uniq compare
                  in
                  let periods = dists `Shifted and mirrors = dists `Reverse in
                  (* Base variants: a stencil chain's tau_min is the
                     lowest ghost-read offset; anchoring a stride or
                     two higher can align blocks with the core
                     (written) region. *)
                  let variants =
                    { plain with base = tau + dp }
                    :: { plain with base = tau + (2 * dp) }
                    :: List.concat_map
                        (fun per ->
                          { plain with period = Some per }
                          :: List.map
                               (fun m ->
                                 { plain with period = Some per; mirror = Some m })
                               (List.filter (fun m -> m <= per) mirrors))
                        periods
                    @ List.map (fun m -> { plain with mirror = Some m }) mirrors
                  in
                  let refit_halo (l : layout) =
                    if l.halo <= 0 then l
                    else
                      let size = Option.value (Lcg.size lcg g.array) ~default:1 in
                      if l.halo >= size then l
                      else
                        let stray =
                          List.fold_left
                            (fun acc (n : Lcg.node) ->
                              match
                                ( Lcg.region_bounds lcg n ~par:0,
                                  Lcg.region_bounds lcg n ~par:1 )
                              with
                              | Some (lo0, hi0), Some (lo1, _) ->
                                  let d = max 1 (lo1 - lo0) in
                                  let up = hi0 - (l.base + d - 1) in
                                  let down = l.base - lo0 in
                                  max acc (max 0 (max up down))
                              | _ -> max acc l.halo)
                            0 chain_nodes
                        in
                        { l with halo = min l.halo stray }
                  in
                  (* score on remote accesses, tie-break on the fitted
                     halo (smaller ghost zones mean smaller frontier
                     updates) *)
                  let score l =
                    let l = refit_halo l in
                    ( List.fold_left
                        (fun acc (n : Lcg.node) ->
                          acc + remote_count lcg plan0 l ~phase_idx:n.phase_idx)
                        0 chain_nodes,
                      l.halo,
                      l )
                  in
                  let _, _, best =
                    List.fold_left
                      (fun (br, bh, bl) cand ->
                        let r, hh, l = score cand in
                        if r < br || (r = br && hh < bh) then (r, hh, l)
                        else (br, bh, bl))
                      (score plain) variants
                  in
                  best
                with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> fallback))
          chains)
      lcg.graphs
  in
  (* Keep a halo only when it pays: the remote reads it converts to
     local (valued at t_remote each) must beat the frontier updates the
     epoch's writing phases will have to ship. *)
  let machine = Cost.default_machine ~h in
  let layouts =
    List.map
      (fun (l : layout) ->
        if l.halo <= 0 then l
        else begin
          let size = Option.value (Lcg.size lcg l.array) ~default:1 in
          if l.halo >= size then
            if epoch_written lcg l then { l with halo = 0 }
            else l (* read-only replication always wins *)
          else begin
            let saved, writing_phases = halo_savings lcg plan0 ~p l in
            let nblocks = (size + l.block - 1) / l.block in
            let frontier_cost =
              float_of_int writing_phases
              *. Cost.frontier machine ~words:(2 * l.halo * nblocks / h)
            in
            let benefit =
              float_of_int (saved * (machine.t_remote - machine.t_local))
              /. float_of_int h
            in
            if benefit > frontier_cost then l else { l with halo = 0 }
          end
        end)
      layouts
  in
  (* Stretch every epoch to meet the next one of the same array, so the
     removal of privatized chains leaves no uncovered phases. *)
  let n_phases = List.length lcg.prog.phases in
  let layouts =
    List.concat_map
      (fun (decl : Ir.Types.array_decl) ->
        let mine =
          List.filter (fun l -> String.equal l.array decl.name) layouts
          |> List.sort (fun a b -> compare a.first_phase b.first_phase)
        in
        let rec stretch = function
          | [] -> []
          | [ last ] -> [ { last with last_phase = n_phases - 1 } ]
          | a :: (b :: _ as rest) ->
              { a with last_phase = b.first_phase - 1 } :: stretch rest
        in
        stretch mine)
      lcg.prog.arrays
  in
  { plan0 with layouts }

let block_plan (lcg : Lcg.t) : plan =
  let h = lcg.h in
  let n = List.length lcg.prog.phases in
  let chunk =
    Array.init n (fun k ->
        let counts =
          List.filter_map
            (fun (g : Lcg.graph) ->
              Option.map (fun (nd : Lcg.node) -> nd.par_n)
                (Lcg.node_of_phase g ~phase_idx:k))
            lcg.graphs
        in
        match counts with [] -> 1 | c :: _ -> max 1 (Lattice.cdiv c h))
  in
  let layouts =
    List.map
      (fun (decl : Ir.Types.array_decl) ->
        {
          array = decl.name;
          first_phase = 0;
          last_phase = n - 1;
          base = 0;
          block =
            max 1
              (Lattice.cdiv (Option.value (Lcg.size lcg decl.name) ~default:1) h);
          period = None;
          mirror = None;
          halo = 0;
        })
      lcg.prog.arrays
  in
  { h; chunk; layouts; privatized = [] }

let pp ppf (plan : plan) =
  Format.fprintf ppf "@[<v>H=%d@,chunks: %s@," plan.h
    (String.concat ", "
       (Array.to_list (Array.mapi (fun k p -> Printf.sprintf "p%d=%d" k p) plan.chunk)));
  List.iter
    (fun l ->
      Format.fprintf ppf "%s phases %d..%d: CYCLIC(%d) base %d%s%s%s@," l.array
        l.first_phase l.last_phase l.block l.base
        (match l.period with Some d -> Printf.sprintf " period %d" d | None -> "")
        (match l.mirror with Some m -> Printf.sprintf " mirror %d" m | None -> "")
        (if l.halo > 0 then Printf.sprintf " halo %d" l.halo else ""))
    plan.layouts;
  (match plan.privatized with
  | [] -> ()
  | ps ->
      Format.fprintf ppf "privatized: %s@,"
        (String.concat ", "
           (List.map (fun (k, a) -> Printf.sprintf "(%d,%s)" k a) ps)));
  Format.fprintf ppf "@]"
