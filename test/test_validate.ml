(* Parity of the dataflow validator with its reference semantics.
   [Exec.Validate] runs the compiled closures over the executor's
   replica windows; [reference] below is the model it replaced - a
   replay of [Ir.Enumerate.iter] events against versioned hash-table
   memories, with the serving rule and delivery loop spelled out.  The
   two must agree on [reads], [stale] and [stale_examples] for every
   registry kernel under the generated schedule and under schedules
   with messages removed, and for generated programs.  The schedules
   with messages removed are planted bugs: dropping any one message a
   later read depends on must surface as stale reads. *)

open Locality
open Ilp
module Comm = Dsmsim.Comm

(* Every (array, address) carries the version of its latest sequential
   write; each processor holds a copy.  A write updates the owner's copy
   and the writer's; messages copy the source's versions into the
   destination's; a read is stale when the copy serving it (the
   reader's own when the read is local, the owner's otherwise) lags the
   sequential version.  Privatized arrays are not checked. *)
let reference ?(rounds = 1) ~sched (lcg : Lcg.t) (plan : Distribution.plan) :
    Exec.Validate.report =
  let h = plan.h in
  let golden : (string * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let held : (int * string * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let g key = Option.value ~default:0 (Hashtbl.find_opt golden key) in
  let hv proc (a, x) =
    Option.value ~default:0 (Hashtbl.find_opt held (proc, a, x))
  in
  let set_held proc (a, x) v = Hashtbl.replace held (proc, a, x) v in
  let reads = ref 0 and stale = ref 0 and examples = ref [] in
  let counter = ref 0 in
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
              (Comm.intervals m))
          messages
  in
  Comm.walk ~rounds ~sched ~phases:lcg.prog.phases
    ~step:(fun ~round:_ ~k ph ~incoming ~outgoing ->
      List.iter deliver incoming;
      let chunk = plan.chunk.(k) in
      Ir.Enumerate.iter lcg.prog lcg.env ph
        ~f:(fun ~par ~array ~addr access ~work:_ ->
          if not (List.mem (k, array) plan.privatized) then begin
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
                  match layout with
                  | Some l
                    when not
                           (Distribution.read_is_local lcg plan l ~proc addr) ->
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

let report = Alcotest.testable Exec.Validate.pp ( = )

let check_parity label ?rounds ~sched (t : Core.Pipeline.t) =
  let r = Exec.Validate.run ?rounds ~sched t.lcg t.plan in
  Alcotest.check report label (reference ?rounds ~sched t.lcg t.plan) r;
  r

(* The generated schedule, frontiers only, redistributions only and no
   messages at all. *)
let schedules (t : Core.Pipeline.t) =
  let sched = Comm.generate t.lcg t.plan in
  [
    ("generated", sched);
    ("frontiers only", Comm.frontiers sched);
    ("redistributions only", Comm.redistributions sched);
    ("empty", []);
  ]

(* (kernel, H, schedule) cells whose validation found stale reads *)
let stale_cells = ref 0

let test_kernel (e : Codes.Registry.entry) () =
  let rounds = if e.program.repeats then 2 else 1 in
  List.iter
    (fun h ->
      let t =
        Core.Pipeline.run e.program ~env:(e.env_of_size e.default_size) ~h
      in
      List.iter
        (fun (name, sched) ->
          let label = Printf.sprintf "%s H=%d %s" e.name h name in
          let r = check_parity label ~rounds ~sched t in
          if r.stale > 0 then incr stale_cells)
        (schedules t))
    [ 2; 4; 16; 64 ]

(* Runs after the kernels: the degraded schedules must have given the
   comparison stale reads to agree on. *)
let test_stale_seen () =
  Alcotest.(check bool)
    (Printf.sprintf "%d cells read stale" !stale_cells)
    true (!stale_cells >= 20)

(* [sched] with one message dropped, for every message in turn, each
   labelled by its event and index; an event left without messages is
   dropped with it. *)
let drop_each (sched : Comm.schedule) =
  let without j = List.filteri (fun i _ -> i <> j) in
  List.concat
    (List.mapi
       (fun k event ->
         let name, messages, rebuild =
           match event with
           | Comm.Redistribute r ->
               ( Printf.sprintf "redistribute %s before %d" r.array
                   r.before_phase,
                 r.messages,
                 fun messages -> Comm.Redistribute { r with messages } )
           | Comm.Frontier f ->
               ( Printf.sprintf "frontier %s after %d" f.array f.after_phase,
                 f.messages,
                 fun messages -> Comm.Frontier { f with messages } )
         in
         List.mapi
           (fun j _ ->
             let kept =
               match without j messages with
               | [] -> []
               | rest -> [ rebuild rest ]
             in
             ( Printf.sprintf "drop %s message %d" name j,
               List.concat
                 (List.mapi (fun i e -> if i = k then kept else [ e ]) sched) ))
           messages)
       sched)

(* Drops that no read notices, per (kernel, H); every other kernel has
   none.  These messages carry nothing a later read depends on: at H=2
   one direction of each of swim's three frontier events (CU after
   phase 0; P and V after phase 2), and tomcatv's two 1-word PARTIAL
   redistributions (before phases 0 and 2).  Of all single-message
   drops, 5 of 22 go unnoticed at H=2 and 12 of 90 at H=4. *)
let unread_drops =
  [
    (("swim", 2), 3);
    (("tomcatv", 2), 2);
    (("swim", 4), 9);
    (("tomcatv", 4), 3);
  ]

let test_drop_one (e : Codes.Registry.entry) () =
  let rounds = if e.program.repeats then 2 else 1 in
  List.iter
    (fun h ->
      let t =
        Core.Pipeline.run e.program ~env:(e.env_of_size e.default_size) ~h
      in
      let drops = drop_each (Comm.generate t.lcg t.plan) in
      let unnoticed =
        List.length
          (List.filter
             (fun (name, sched) ->
               let label = Printf.sprintf "%s H=%d %s" e.name h name in
               (check_parity label ~rounds ~sched t).stale = 0)
             drops)
      in
      let label = Printf.sprintf "%s H=%d" e.name h in
      if drops <> [] then
        Alcotest.(check bool)
          (label ^ ": some drop is caught")
          true
          (unnoticed < List.length drops);
      Alcotest.(check int)
        (Printf.sprintf "%s: unnoticed of %d drops" label (List.length drops))
        (Option.value ~default:0 (List.assoc_opt (e.name, h) unread_drops))
        unnoticed)
    [ 2; 4 ]

let test_fuzz () =
  for index = 0 to 39 do
    let prog = Fuzz.Gen.program Fuzz.Gen.default ~seed:2026 ~index in
    let t = Core.Pipeline.run prog ~env:(Fuzz.Gen.midpoint_env prog) ~h:4 in
    let rounds = if prog.repeats then 2 else 1 in
    let sched = Comm.generate ~on_error:ignore t.lcg t.plan in
    ignore (check_parity (Printf.sprintf "default#%d" index) ~rounds ~sched t)
  done

let () =
  Alcotest.run "validate"
    [
      ( "kernels",
        List.map
          (fun (e : Codes.Registry.entry) ->
            Alcotest.test_case e.name `Quick (test_kernel e))
          Codes.Registry.all
        @ [ Alcotest.test_case "stale reads seen" `Quick test_stale_seen ] );
      ( "drop one message",
        List.map
          (fun (e : Codes.Registry.entry) ->
            Alcotest.test_case e.name `Quick (test_drop_one e))
          Codes.Registry.all );
      ("fuzz", [ Alcotest.test_case "default 2026 H=4" `Quick test_fuzz ]);
    ]
