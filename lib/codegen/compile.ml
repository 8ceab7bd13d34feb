open Symbolic
open Ilp
module E = Ir.Enumerate

exception Unsupported of string

type site = {
  array : string;
  access : Ir.Types.access;
  index : int;
  parallel : bool;
}

type consumer = {
  bind : site -> int -> unit;
  assign : int -> unit;
  iteration : int -> unit;
  sync : unit -> unit;
}

type t = {
  phase_name : string;
  shapes : E.shape list;
  sweep : me:int option -> consumer -> unit;
}

let rec has_parallel = function
  | E.Stmt _ -> false
  | E.Nest l -> l.parallel || List.exists has_parallel l.body

let nop (_ : int array) = ()

(* One compiled node of the nest: given the sweep's processor and
   consumer, it binds its sites and returns the closure that runs it
   over the slot file.  Ownership is decided once, at the parallel loop
   (a phase has at most one), whose iterations [me] walks chunk by
   chunk; serial statements run on processor 0. *)
let rec node ~chunk ~h ~parallel (n : E.node) ~me (c : consumer) =
  match n with
  | E.Stmt _ when (not parallel) && me <> None && me <> Some 0 -> nop
  | E.Stmt s ->
      (* reads, then writes, each in textual order *)
      let sites access =
        List.concat
          (List.mapi
             (fun index (r : E.site) ->
               if Ir.Types.equal_access r.access access then
                 [ (c.bind { array = r.array; access; index; parallel }, r.addr) ]
               else [])
             s.refs)
      in
      let l = sites Ir.Types.Read @ sites Ir.Types.Write in
      let acts = Array.of_list (List.map fst l) and addrs = Array.of_list (List.map snd l) in
      let work = s.work in
      fun slots ->
        c.assign work;
        for j = 0 to Array.length acts - 1 do
          acts.(j) (addrs.(j) slots)
        done
  | E.Nest l ->
      let inner = parallel || l.parallel in
      let body =
        Array.of_list
          (List.map (fun n -> node ~chunk ~h ~parallel:inner n ~me c) l.body)
      in
      (* a serial loop above the parallel loop carries cross-processor
         dependences (its iterations, and the serial statements among
         its children, are ordered against every processor's parallel
         work), so every processor syncs after each child - trip counts
         at these levels are identical across processors, so the sync
         counts align *)
      let sync_after = (not l.parallel) && List.exists has_parallel l.body in
      let run slots v =
        slots.(l.slot) <- v;
        if l.parallel then c.iteration v;
        for j = 0 to Array.length body - 1 do
          body.(j) slots;
          if sync_after then c.sync ()
        done
      in
      fun slots ->
        let lo = l.lo slots and hi = l.hi slots in
        match me with
        | Some p when l.parallel ->
            Distribution.own_chunks ~chunk ~h ~me:p ~lo ~hi (fun a b ->
                for v = a to b do
                  run slots v
                done)
        | _ ->
            for v = lo to hi do
              run slots v
            done

let phase (prog : Ir.Types.program) (env : Env.t) (plan : Distribution.plan) k
    (ph : Ir.Types.phase) : t =
  let nest = E.compile prog env ph in
  Option.iter (fun msg -> raise (Unsupported msg)) nest.unsupported;
  let chunk = plan.chunk.(k) and h = plan.h in
  let parallel = has_parallel nest.root in
  {
    phase_name = ph.phase_name;
    shapes = nest.shapes;
    sweep =
      (fun ~me c ->
        match me with
        (* a phase with no parallel loop runs wholly on processor 0 *)
        | Some p when p <> 0 && not parallel -> ()
        | _ ->
            node ~chunk ~h ~parallel:false nest.root ~me c
              (Array.make (max 1 nest.nslots) 0));
  }

let program (prog : Ir.Types.program) (env : Env.t) (plan : Distribution.plan)
    : t list =
  List.mapi (fun k ph -> phase prog env plan k ph) prog.phases
