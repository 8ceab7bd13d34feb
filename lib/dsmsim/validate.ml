open Locality
open Ilp

type report = {
  reads : int;
  stale : int;
  stale_examples : (string * int * int) list;
}

let run ?(rounds = 1) ?on_error ?sched (lcg : Lcg.t) (plan : Distribution.plan)
    : report =
  let h = plan.h in
  let sched =
    match sched with Some s -> s | None -> Comm.generate ?on_error lcg plan
  in
  (* golden.(array, addr) = version after the latest sequential write *)
  let golden : (string * int, int) Hashtbl.t = Hashtbl.create 1024 in
  (* held.(proc, array, addr) = version of that processor's copy *)
  let held : (int * string * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let g key = try Hashtbl.find golden key with Not_found -> 0 in
  let hv proc (a, x) = try Hashtbl.find held (proc, a, x) with Not_found -> 0 in
  let set_held proc (a, x) v = Hashtbl.replace held (proc, a, x) v in
  let reads = ref 0 and stale = ref 0 in
  let examples = ref [] in
  let counter = ref 0 in
  let size_of = Comm.size_of ?on_error lcg in
  let deliver = function
    | Comm.Redistribute { array; messages; _ }
    | Comm.Frontier { array; messages; _ } ->
        List.iter
          (fun (m : Comm.message) ->
            List.iter
              (fun (lo, hi) ->
                for a = lo to hi do
                  set_held m.dst (array, a) (hv m.src (array, a))
                done)
              m.ranges)
          messages
  in
  (* Comm.walk gates the events, every gated event is delivered, and
     accesses replay against the versioned memory. *)
  Comm.walk ~rounds ~sched ~phases:lcg.prog.phases
    ~step:(fun ~round:_ ~k ph ~incoming ~outgoing ->
        List.iter deliver incoming;
        let chunk = plan.chunk.(k) in
        let privatized array = List.mem (k, array) plan.privatized in
        Ir.Enumerate.iter lcg.prog lcg.env ph
          ~f:(fun ~par ~array ~addr access ~work:_ ->
            if not (privatized array) then begin
              let key = (array, addr) in
              let proc =
                match par with
                | Some i -> Distribution.proc_of_iteration ~chunk ~h i
                | None -> 0
              in
              let layout = Distribution.layout_for plan ~array ~phase_idx:k in
              let owner =
                match layout with
                | Some l -> Distribution.proc_of plan l ~addr
                | None -> proc
              in
              match access with
              | Ir.Types.Write ->
                  incr counter;
                  Hashtbl.replace golden key !counter;
                  set_held owner key !counter;
                  if proc <> owner then set_held proc key !counter
              | Ir.Types.Read ->
                  incr reads;
                  let serving =
                    (* owned or halo-local reads use the local replica;
                       everything else is a direct get from the owner *)
                    match layout with
                    | Some l
                      when not
                             (Distribution.read_is_local plan l ~size_of ~proc
                                ~addr) ->
                        owner
                    | _ -> proc
                  in
                  if hv serving key <> g key then begin
                    incr stale;
                    if List.length !examples < 10 then
                      examples := (array, addr, k) :: !examples
                  end
            end);
        List.iter deliver outgoing);
  { reads = !reads; stale = !stale; stale_examples = List.rev !examples }

let ok r = r.stale = 0

let pp ppf r =
  Format.fprintf ppf "reads %d, stale %d" r.reads r.stale;
  List.iter
    (fun (a, x, k) -> Format.fprintf ppf "@,  stale %s(%d) in phase %d" a x k)
    r.stale_examples
