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
  let m = Runner.machine ?on_error ?sched lcg plan in
  (* the version each cell holds after sequential execution so far *)
  let golden = Shim.create ~h:1 m.sizes in
  let version = ref 0 in
  let reads = ref 0 and stale = ref 0 in
  let examples = ref [] in
  let handlers ~round ~k : Codegen.Compile.handlers =
    let privatized array = List.mem (k, array) plan.privatized in
    let check ~par:_ ~array ~addr v =
      if not (privatized array) then begin
        incr reads;
        if v <> Bigarray.Array1.get (Shim.window golden ~proc:0 ~array) addr
        then begin
          incr stale;
          if List.length !examples < 10 then
            examples := (array, addr, k) :: !examples
        end
      end
    in
    let procs =
      Array.init h (fun me ->
          Runner.par_handlers m ~spin:0 ~sync:ignore ~check ~me ~round ~k)
    in
    let chunk = plan.chunk.(k) in
    let on = function
      | Some i -> procs.(Distribution.proc_of_iteration ~chunk ~h i)
      | None -> procs.(0)
    in
    {
      read =
        (fun ~par ~array ~addr ->
          ignore (Runner.seq_window golden ~array ~addr);
          (on par).read ~par ~array ~addr);
      write =
        (fun ~par ~array ~addr ~v:_ ->
          let g = Runner.seq_window golden ~array ~addr in
          if not (privatized array) then begin
            incr version;
            let v = float_of_int !version in
            Bigarray.Array1.set g addr v;
            (on par).write ~par ~array ~addr ~v
          end);
      stamp = (fun ~site:_ ~addr:_ -> 0.0);
      work = (fun ~par:_ ~work:_ -> ());
      sync = ignore;
    }
  in
  Dsmsim.Comm.walk ~rounds ~sched:m.sched ~phases:lcg.prog.phases
    ~step:(fun ~round ~k _ ~incoming ~outgoing ->
      List.iter (Runner.deliver m) incoming;
      Runner.sweep_seq m.compiled.(k) (handlers ~round ~k);
      List.iter (Runner.deliver m) outgoing);
  { reads = !reads; stale = !stale; stale_examples = List.rev !examples }

type verdict = Pass | Stale | Checked_nothing

let verdict r =
  if r.stale > 0 then Stale else if r.reads = 0 then Checked_nothing else Pass

let pp ppf r =
  Format.fprintf ppf "reads %d, stale %d" r.reads r.stale;
  List.iter
    (fun (a, x, k) -> Format.fprintf ppf "@,  stale %s(%d) in phase %d" a x k)
    r.stale_examples
