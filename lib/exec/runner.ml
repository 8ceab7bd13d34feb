open Locality
open Ilp
module Comm = Dsmsim.Comm
module Compile = Codegen.Compile

exception Unsupported = Compile.Unsupported

type result = {
  h : int;
  rounds : int;
  wall_par : float;
  wall_seq : float;
  speedup : float;
  busy : float array;
  sched_messages : int;
  sched_words : int;
  expected_messages : int;
  expected_words : int;
  remote_gets : int;
  remote_puts : int;
  local_accesses : int;
  reads_checked : int;
  stale : int;
  stale_examples : (string * int * int) list;
  content_cells : int;
  content_mismatches : int;
  arrays_compared : string list;
  arrays_skipped : string list;
  errors : string list;
}

let schedule_parity r =
  r.sched_messages = r.expected_messages && r.sched_words = r.expected_words

let ok r =
  schedule_parity r && r.stale = 0 && r.content_mismatches = 0
  && r.errors = []

(* Deterministic per-write salt, identical in the sequential replay and
   the parallel run, so value equality means the same write reached the
   same cell. *)
let stamp_value ~round ~k ~site ~addr =
  float_of_int ((((round * 67) + k) * 131) + (site * 8191) + (addr * 3) + 1)

let spin_work spin work =
  if spin > 0 then begin
    let x = ref 0 in
    for i = 1 to work * spin do
      x := !x + i
    done;
    ignore (Sys.opaque_identity !x)
  end

let now () = Unix.gettimeofday ()

(* Replayed reads are recorded per (round, phase, parallel iteration)
   stream; within one stream the parallel run reads in exactly the
   replay's order (same closures, same nesting), so a per-stream cursor
   pairs each executed read with its sequential value. *)
let read_budget = 5_000_000

type job = Quit | Sweep of int * int  (* round, phase *)

type state = {
  plan : Distribution.plan;
  spin : int;
  check_reads : bool;
  compiled : Compile.t array;
  shim : Shim.t;
  (* layout epoch per (phase, array); [None] covers both undistributed
     and privatized-in-this-phase arrays: replica-local access *)
  layout_tbl : (string, Distribution.layout option) Hashtbl.t array;
  size_tbl : (string, int) Hashtbl.t;
  expected : (int * int * int, float array) Hashtbl.t;
  cursors : (int * int * int, int ref) Hashtbl.t array;  (* per domain *)
  reads_checked : int array;
  stale : int array;
  stale_examples : (string * int * int) list ref array;
  worker_errors : string option array;
  start : Shim.Barrier.t;
  fin : Shim.Barrier.t;
  sync : Shim.Barrier.t;
  mutable job : job;
}

(* A worker that dies mid-sweep poisons every barrier so nobody parks
   forever; the recorded error marks the whole run unusable. *)
let record_failure st p e =
  if st.worker_errors.(p) = None then
    st.worker_errors.(p) <- Some (Printexc.to_string e);
  Shim.Barrier.poison st.start;
  Shim.Barrier.poison st.fin;
  Shim.Barrier.poison st.sync

let key_of ~round ~k ~par =
  (round, k, match par with Some i -> i | None -> -1)

(* Handlers for processor [me]'s share of phase [k] in [round]. *)
let par_handlers st ~me ~round ~k : Compile.handlers =
  let c = st.shim.counters.(me) in
  let own array = Shim.window st.shim ~proc:me ~array in
  let layout array = Hashtbl.find st.layout_tbl.(k) array in
  let cursors = st.cursors.(me) in
  let size_of = Hashtbl.find_opt st.size_tbl in
  let check ~par ~array ~addr v =
    let key = key_of ~round ~k ~par in
    match Hashtbl.find_opt st.expected key with
    | None -> ()
    | Some arr ->
        let cur =
          match Hashtbl.find_opt cursors key with
          | Some r -> r
          | None ->
              let r = ref 0 in
              Hashtbl.add cursors key r;
              r
        in
        if !cur < Array.length arr then begin
          let want = arr.(!cur) in
          incr cur;
          st.reads_checked.(me) <- st.reads_checked.(me) + 1;
          if v <> want then begin
            st.stale.(me) <- st.stale.(me) + 1;
            let ex = st.stale_examples.(me) in
            if List.length !ex < 4 then ex := (array, addr, k) :: !ex
          end
        end
  in
  {
    read =
      (fun ~par ~array ~addr ->
        let v =
          match layout array with
          | Some l
            when not
                   (Distribution.read_is_local st.plan l ~size_of ~proc:me
                      ~addr) ->
              c.gets <- c.gets + 1;
              Bigarray.Array1.get
                (Shim.window st.shim
                   ~proc:(Distribution.proc_of st.plan l ~addr)
                   ~array)
                addr
          | _ ->
              c.local <- c.local + 1;
              Bigarray.Array1.get (own array) addr
        in
        if st.check_reads then check ~par ~array ~addr v;
        v);
    write =
      (fun ~par:_ ~array ~addr ~v ->
        Bigarray.Array1.set (own array) addr v;
        match layout array with
        | None -> c.local <- c.local + 1
        | Some l ->
            let owner = Distribution.proc_of st.plan l ~addr in
            if owner <> me then begin
              Bigarray.Array1.set
                (Shim.window st.shim ~proc:owner ~array)
                addr v;
              c.puts <- c.puts + 1
            end
            else c.local <- c.local + 1);
    stamp = (fun ~site ~addr -> stamp_value ~round ~k ~site ~addr);
    work =
      (fun ~par:_ ~work ->
        c.workc <- c.workc + work;
        spin_work st.spin work);
    sync = (fun () -> Shim.Barrier.await st.sync);
  }

let run_share st ~me ~round ~k =
  let t0 = now () in
  let cp = st.compiled.(k) in
  let slots = Array.make (max 1 cp.nslots) 0 in
  cp.sweep ~slots ~me:(Some me) (par_handlers st ~me ~round ~k);
  let c = st.shim.counters.(me) in
  c.busy <- c.busy +. (now () -. t0)

let worker st p =
  let rec loop () =
    Shim.Barrier.await st.start;
    if st.worker_errors.(p) <> None then Shim.Barrier.await st.fin
    else
      match st.job with
      | Quit -> Shim.Barrier.await st.fin
      | Sweep (round, k) ->
          (try run_share st ~me:p ~round ~k
           with e -> record_failure st p e);
          Shim.Barrier.await st.fin;
          loop ()
  in
  loop ()

(* Scheduled communication runs on the main thread while every domain
   is parked at the barrier. *)
let deliver st = function
  | Comm.Redistribute { array; messages; _ }
  | Comm.Frontier { array; messages; _ } ->
      List.iter (Shim.deliver st.shim ~array) messages

(* Release the fleet for one sweep of phase [k]; this thread takes
   processor 0's share. *)
let sweep st ~round ~k =
  st.job <- Sweep (round, k);
  Shim.Barrier.await st.start;
  (try run_share st ~me:0 ~round ~k with e -> record_failure st 0 e);
  Shim.Barrier.await st.fin

let execute ?(rounds = 1) ?(spin = 0) ?(check_reads = true) (lcg : Lcg.t)
    (plan : Distribution.plan) : result =
  let errors = ref [] in
  let on_error m = errors := m :: !errors in
  let h = plan.h in
  let phases = lcg.prog.phases in
  let nphases = List.length phases in
  let sched = Comm.generate ~on_error lcg plan in
  let compiled = Array.of_list (Compile.program lcg.prog lcg.env plan) in
  let sizes =
    List.map
      (fun (d : Ir.Types.array_decl) ->
        match Comm.array_size ~on_error lcg d.name with
        | Some s -> (d.name, s)
        | None ->
            raise (Unsupported ("size of " ^ d.name ^ " does not evaluate")))
      lcg.prog.arrays
  in
  let size_tbl = Hashtbl.create 8 in
  List.iter (fun (n, s) -> Hashtbl.replace size_tbl n s) sizes;
  let layout_tbl =
    Array.init nphases (fun k ->
        let t = Hashtbl.create 8 in
        List.iter
          (fun (d : Ir.Types.array_decl) ->
            let l =
              if List.mem (k, d.name) plan.privatized then None
              else Distribution.layout_for plan ~array:d.name ~phase_idx:k
            in
            Hashtbl.replace t d.name l)
          lcg.prog.arrays;
        t)
  in
  (* -- sequential replay: golden contents and expected reads *)
  let golden = Hashtbl.create 8 in
  List.iter
    (fun (n, s) -> Hashtbl.replace golden n (Array.make (max 1 s) 0.0))
    sizes;
  (* cells written during the final layout epoch (last round): the ones
     whose freshest value the epoch's owner is guaranteed to hold *)
  let final_mask = Hashtbl.create 8 in
  let in_final_epoch k array =
    match Hashtbl.find layout_tbl.(nphases - 1) array with
    | None -> false
    | Some lf -> (
        match Hashtbl.find layout_tbl.(k) array with
        | Some l -> l.Distribution.first_phase = lf.Distribution.first_phase
        | None -> false)
  in
  List.iter
    (fun (n, s) -> Hashtbl.replace final_mask n (Bytes.make (max 1 s) '\000'))
    sizes;
  let expected_acc : (int * int * int, float list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let expected_len = ref 0 in
  let replay_handlers ~round ~k : Compile.handlers =
    let cell array addr =
      let g = Hashtbl.find golden array in
      if addr < 0 || addr >= Array.length g then
        raise
          (Unsupported (Printf.sprintf "%s(%d) out of bounds" array addr));
      g
    in
    {
      read =
        (fun ~par ~array ~addr ->
          let v = (cell array addr).(addr) in
          if check_reads && !expected_len < read_budget then begin
            let key = key_of ~round ~k ~par in
            let r =
              match Hashtbl.find_opt expected_acc key with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.add expected_acc key r;
                  r
            in
            r := v :: !r;
            incr expected_len
          end;
          v);
      write =
        (fun ~par:_ ~array ~addr ~v ->
          (cell array addr).(addr) <- v;
          if round = rounds - 1 && in_final_epoch k array then
            Bytes.set (Hashtbl.find final_mask array) addr '\001');
      stamp = (fun ~site ~addr -> stamp_value ~round ~k ~site ~addr);
      work = (fun ~par:_ ~work -> spin_work spin work);
      sync = (fun () -> ());
    }
  in
  let t0 = now () in
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun k cp ->
        let slots = Array.make (max 1 cp.Compile.nslots) 0 in
        cp.Compile.sweep ~slots ~me:None (replay_handlers ~round ~k))
      compiled
  done;
  let wall_seq = now () -. t0 in
  let expected = Hashtbl.create (Hashtbl.length expected_acc) in
  Hashtbl.iter
    (fun key r -> Hashtbl.replace expected key (Array.of_list (List.rev !r)))
    expected_acc;
  (* -- expected schedule: the walk's gating, delivering nothing *)
  let exp_msgs = ref 0 and exp_words = ref 0 in
  Comm.walk ~rounds ~sched ~phases
    ~step:(fun ~round:_ ~k:_ _ ~incoming ~outgoing ->
      let events = incoming @ outgoing in
      exp_msgs := !exp_msgs + Comm.message_count events;
      exp_words := !exp_words + Comm.total_words events);
  (* -- parallel run on h domains (this thread is processor 0) *)
  let st =
    {
      plan;
      spin;
      check_reads;
      compiled;
      shim = Shim.create ~h sizes;
      layout_tbl;
      size_tbl;
      expected;
      cursors = Array.init h (fun _ -> Hashtbl.create 64);
      reads_checked = Array.make h 0;
      stale = Array.make h 0;
      stale_examples = Array.init h (fun _ -> ref []);
      worker_errors = Array.make h None;
      start = Shim.Barrier.create h;
      fin = Shim.Barrier.create h;
      sync = Shim.Barrier.create h;
      job = Quit;
    }
  in
  let domains =
    List.init (h - 1) (fun i -> Domain.spawn (fun () -> worker st (i + 1)))
  in
  let t0 = now () in
  Comm.walk ~rounds ~sched ~phases
    ~step:(fun ~round ~k _ ~incoming ~outgoing ->
      List.iter (deliver st) incoming;
      sweep st ~round ~k;
      List.iter (deliver st) outgoing);
  let wall_par = now () -. t0 in
  st.job <- Quit;
  Shim.Barrier.await st.start;
  Shim.Barrier.await st.fin;
  List.iter Domain.join domains;
  Array.iter
    (function Some e -> errors := e :: !errors | None -> ())
    st.worker_errors;
  (* -- content parity under the final epoch's owners *)
  let content_cells = ref 0 and content_mismatches = ref 0 in
  let compared = ref [] and skipped = ref [] in
  List.iter
    (fun (name, size) ->
      match Hashtbl.find layout_tbl.(nphases - 1) name with
      | None -> skipped := name :: !skipped
      | Some l ->
          let g = Hashtbl.find golden name in
          let mask = Hashtbl.find final_mask name in
          let any = ref false in
          for a = 0 to size - 1 do
            if Bytes.get mask a = '\001' then begin
              any := true;
              incr content_cells;
              let owner = Distribution.proc_of plan l ~addr:a in
              let w = Shim.window st.shim ~proc:owner ~array:name in
              if Bigarray.Array1.get w a <> g.(a) then
                incr content_mismatches
            end
          done;
          if !any then compared := name :: !compared
          else skipped := name :: !skipped)
    sizes;
  let sum f = Array.fold_left (fun a c -> a + f c) 0 st.shim.counters in
  let wall_seq = if wall_seq <= 0.0 then epsilon_float else wall_seq in
  let wall_par = if wall_par <= 0.0 then epsilon_float else wall_par in
  {
    h;
    rounds;
    wall_par;
    wall_seq;
    speedup = wall_seq /. wall_par;
    busy = Array.map (fun (c : Shim.counters) -> c.busy) st.shim.counters;
    sched_messages = sum (fun c -> c.sched_msgs);
    sched_words = sum (fun c -> c.sched_words);
    expected_messages = !exp_msgs;
    expected_words = !exp_words;
    remote_gets = sum (fun c -> c.gets);
    remote_puts = sum (fun c -> c.puts);
    local_accesses = sum (fun c -> c.local);
    reads_checked = Array.fold_left ( + ) 0 st.reads_checked;
    stale = Array.fold_left ( + ) 0 st.stale;
    stale_examples =
      List.concat_map (fun r -> List.rev !r) (Array.to_list st.stale_examples);
    content_cells = !content_cells;
    content_mismatches = !content_mismatches;
    arrays_compared = List.rev !compared;
    arrays_skipped = List.rev !skipped;
    errors = List.rev !errors;
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>H=%d rounds=%d  wall_par=%.4fs wall_seq=%.4fs speedup=%.2fx@,\
     messages %d/%d words %d/%d (measured/schedule)%s@,\
     direct: %d gets, %d puts, %d local@,\
     reads checked %d, stale %d; contents: %d cells, %d mismatches \
     (%d arrays%s)@]"
    r.h r.rounds r.wall_par r.wall_seq r.speedup r.sched_messages
    r.expected_messages r.sched_words r.expected_words
    (if schedule_parity r then "" else "  PARITY MISMATCH")
    r.remote_gets r.remote_puts r.local_accesses r.reads_checked r.stale
    r.content_cells r.content_mismatches
    (List.length r.arrays_compared)
    (match r.arrays_skipped with
    | [] -> ""
    | l -> ", skipped " ^ String.concat " " l);
  List.iter
    (fun (a, x, k) ->
      Format.fprintf ppf "@,  stale %s(%d) in phase %d" a x k)
    r.stale_examples;
  List.iter (fun e -> Format.fprintf ppf "@,  error: %s" e) r.errors
