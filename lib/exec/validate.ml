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
  (* Each access goes to the accessor of the processor that owns the
     current parallel iteration (serial statements: processor 0). *)
  let consumer ~k : Codegen.Compile.consumer =
    let chunk = plan.chunk.(k) and on = ref 0 in
    let bind (s : Codegen.Compile.site) =
      let g = Shim.window golden ~proc:0 ~array:s.array in
      let accs = Array.init h (fun me -> Runner.accessor m ~me ~k s.array) in
      let proc () = if s.parallel then !on else 0 in
      let checked = not (List.mem (k, s.array) plan.privatized) in
      match s.access with
      | Ir.Types.Read ->
          fun addr ->
            Runner.in_bounds g ~array:s.array addr;
            if checked then begin
              incr reads;
              let w = Runner.served accs.(proc ()) addr in
              if Bigarray.Array1.get w addr <> Bigarray.Array1.get g addr then begin
                incr stale;
                if List.length !examples < 10 then
                  examples := (s.array, addr, k) :: !examples
              end
            end
      | Ir.Types.Write ->
          fun addr ->
            Runner.in_bounds g ~array:s.array addr;
            if checked then begin
              incr version;
              let v = float_of_int !version in
              Bigarray.Array1.set g addr v;
              ignore (Runner.store accs.(proc ()) addr v)
            end
    in
    {
      bind;
      assign = ignore;
      iteration = (fun i -> on := Distribution.proc_of_iteration ~chunk ~h i);
      sync = ignore;
    }
  in
  Dsmsim.Comm.walk ~rounds ~sched:m.sched ~phases:lcg.prog.phases
    ~step:(fun ~round:_ ~k _ ~incoming ~outgoing ->
      List.iter (Runner.deliver m) incoming;
      m.compiled.(k).sweep ~me:None (consumer ~k);
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
