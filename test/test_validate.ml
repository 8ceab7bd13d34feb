(* Parity of the dataflow validator with its reference semantics.
   [Exec.Validate] runs the compiled closures over the executor's
   replica windows; [reference] below is the model it replaced - a
   replay of [Ir.Enumerate.iter] events against versioned hash-table
   memories, with the serving rule and delivery loop spelled out.  The
   two must agree on [reads], [stale] and [stale_examples] for every
   registry kernel under the generated schedule and under schedules
   with messages removed or faulted, and for generated programs. *)

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
  let size_of = Comm.size_of lcg in
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

let report = Alcotest.testable Exec.Validate.pp ( = )

let check_parity label ?rounds ~sched (t : Core.Pipeline.t) =
  let r = Exec.Validate.run ?rounds ~sched t.lcg t.plan in
  Alcotest.check report label (reference ?rounds ~sched t.lcg t.plan) r;
  r

let faults =
  match Dsmsim.Fault.parse "7:0.3" with Ok s -> s | Error e -> failwith e

(* The generated schedule, frontiers only, redistributions only, no
   messages at all, and faults 7:0.3 with two retries. *)
let schedules (t : Core.Pipeline.t) =
  let sched = Comm.generate t.lcg t.plan in
  [
    ("generated", sched);
    ("frontiers only", Comm.frontiers sched);
    ("redistributions only", Comm.redistributions sched);
    ("empty", []);
    ("faults 7:0.3 retries 2", fst (Dsmsim.Fault.apply faults ~retries:2 sched));
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
      ("fuzz", [ Alcotest.test_case "default 2026 H=4" `Quick test_fuzz ]);
    ]
