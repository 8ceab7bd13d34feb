open Symbolic
open Ilp
module E = Ir.Enumerate

exception Unsupported of string

type handlers = {
  read : par:int option -> array:string -> addr:int -> float;
  write : par:int option -> array:string -> addr:int -> v:float -> unit;
  stamp : site:int -> addr:int -> float;
  work : par:int option -> work:int -> unit;
  sync : unit -> unit;
}

type t = {
  phase_name : string;
  nslots : int;
  shapes : E.shape list;
  sweep : slots:int array -> me:int option -> handlers -> unit;
}

let rec has_parallel = function
  | E.Stmt _ -> false
  | E.Nest l -> l.parallel || List.exists has_parallel l.body

(* One compiled node of the nest: a closure [slots -> par -> me ->
   handlers].  Ownership filtering happens at the parallel loop (a
   phase has at most one), and again defensively at each assignment for
   serial statements, which run on processor 0. *)
let rec node ~chunk ~h (n : E.node) =
  let owner i = Distribution.proc_of_iteration ~chunk ~h i in
  match n with
  | E.Stmt s ->
      let sites = List.mapi (fun site (r : E.site) -> (site, r)) s.refs in
      let pick access =
        List.filter
          (fun (_, (r : E.site)) -> Ir.Types.equal_access r.access access)
          sites
      in
      let creads = pick Ir.Types.Read and cwrites = pick Ir.Types.Write in
      let work = s.work in
      fun slots par me (hd : handlers) ->
        let mine =
          match me with
          | None -> true
          | Some p -> (
              match par with Some i -> owner i = p | None -> p = 0)
        in
        if mine then begin
          hd.work ~par ~work;
          let sum = ref 0.0 in
          List.iter
            (fun (_, (r : E.site)) ->
              sum := !sum +. hd.read ~par ~array:r.array ~addr:(r.addr slots))
            creads;
          List.iter
            (fun (site, (r : E.site)) ->
              let addr = r.addr slots in
              hd.write ~par ~array:r.array ~addr
                ~v:(!sum +. hd.stamp ~site ~addr))
            cwrites
        end
  | E.Nest l ->
      let lo = l.lo and hi = l.hi and slot = l.slot and parallel = l.parallel in
      let body = List.map (node ~chunk ~h) l.body in
      let deeper = List.exists has_parallel l.body in
      (* at the (unique) parallel loop, skip foreign iterations
         wholesale - everything beneath belongs to the owner *)
      let prune = parallel && not deeper in
      (* a serial loop above the parallel loop carries cross-processor
         dependences (its iterations, and the serial statements among
         its children, are ordered against every processor's parallel
         work), so every processor syncs after each child - trip counts
         at these levels are identical across processors, so the sync
         counts align *)
      let sync_after = (not parallel) && deeper in
      fun slots par me hd ->
        let lo = lo slots and hi = hi slots in
        for v = lo to hi do
          let skip =
            prune
            && match me with Some p -> owner v <> p | None -> false
          in
          if not skip then begin
            slots.(slot) <- v;
            let par = if parallel then Some v else par in
            List.iter
              (fun f ->
                f slots par me hd;
                if sync_after then hd.sync ())
              body
          end
        done

let phase (prog : Ir.Types.program) (env : Env.t) (plan : Distribution.plan) k
    (ph : Ir.Types.phase) : t =
  let nest = E.compile prog env ph in
  Option.iter (fun msg -> raise (Unsupported msg)) nest.unsupported;
  let chunk = plan.chunk.(k) and h = plan.h in
  let body = node ~chunk ~h nest.root in
  let parallel = has_parallel nest.root in
  {
    phase_name = ph.phase_name;
    nslots = nest.nslots;
    shapes = nest.shapes;
    sweep =
      (fun ~slots ~me hd ->
        match me with
        (* a phase with no parallel loop runs wholly on processor 0 *)
        | Some p when p <> 0 && not parallel -> ()
        | _ -> body slots None me hd);
  }

let program (prog : Ir.Types.program) (env : Env.t) (plan : Distribution.plan)
    : t list =
  List.mapi (fun k ph -> phase prog env plan k ph) prog.phases
