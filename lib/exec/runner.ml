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
  reads_unchecked : int;
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
let[@inline] stamp ~round ~k ~site ~addr =
  float_of_int ((((round * 67) + k) * 131) + (site * 8191) + (addr * 3) + 1)

(* The assignment being executed: the sum of its reads so far (a record
   of floats only, so stores stay unboxed). *)
type acc = { mutable sum : float }

(* The start of an assignment: its sum restarts and [spin] scales its
   work cycles into a busy loop of that many additions.  Eight additions
   per trip make one chain of dependent adds, so the loop runs at the
   chain's speed wherever its code lands: a one-addition loop took half
   again as long when it straddled a 64-byte line, which the code size
   of every module linked ahead of this one decided. *)
let assign acc spin work =
  acc.sum <- 0.0;
  if spin > 0 then begin
    let n = work * spin and x = ref 0 and i = ref 1 in
    while !i + 7 <= n do
      let j = !i in
      x := !x + j + (j + 1) + (j + 2) + (j + 3) + (j + 4) + (j + 5) + (j + 6) + (j + 7);
      i := j + 8
    done;
    for j = !i to n do
      x := !x + j
    done;
    ignore (Sys.opaque_identity !x)
  end

let now () = Unix.gettimeofday ()

(* -- the replica machine *)

type machine = {
  lcg : Lcg.t;
  plan : Distribution.plan;
  sched : Comm.schedule;
  compiled : Compile.t array;
  sizes : (string * int) list;
  shim : Shim.t;
}

let machine ?on_error ?sched (lcg : Lcg.t) (plan : Distribution.plan) =
  let sched =
    match sched with Some s -> s | None -> Comm.generate ?on_error lcg plan
  in
  let compiled = Array.of_list (Compile.program lcg.prog lcg.env plan) in
  let sizes =
    List.map
      (fun (d : Ir.Types.array_decl) ->
        match Lcg.size lcg d.name with
        | Some s -> (d.name, s)
        | None ->
            raise (Unsupported ("size of " ^ d.name ^ " does not evaluate")))
      lcg.prog.arrays
  in
  { lcg; plan; sched; compiled; sizes; shim = Shim.create ~h:plan.h sizes }

type accessor = {
  me : int;
  own : Shim.window;
  wins : Shim.window array;
  local : int -> bool;
  owner : int -> int;
}

let accessor m ~me ~k array =
  let wins = Hashtbl.find m.shim.replicas array in
  let own = wins.(me) in
  match Distribution.placement m.plan ~array ~phase_idx:k with
  | None -> { me; own; wins; local = (fun _ -> true); owner = (fun _ -> me) }
  | Some l ->
      let local = Distribution.read_is_local m.lcg m.plan l ~proc:me in
      let o = Distribution.own_of ~h:m.plan.h l in
      { me; own; wins; local; owner = Symbolic.Lattice.Own.owner o }

let[@inline] served a addr = if a.local addr then a.own else a.wins.(a.owner addr)

let[@inline] store a addr v =
  Bigarray.Array1.set a.own addr v;
  let o = a.owner addr in
  if o <> a.me then Bigarray.Array1.set a.wins.(o) addr v;
  o <> a.me

let out_of_bounds array addr =
  raise (Unsupported (Printf.sprintf "%s(%d) out of bounds" array addr))

let[@inline] in_bounds (w : Shim.window) ~array addr =
  if addr < 0 || addr >= Bigarray.Array1.dim w then out_of_bounds array addr

(* Scheduled communication runs on the main thread while every domain
   is parked at the barrier. *)
let deliver m = function
  | Comm.Redistribute { array; messages; _ }
  | Comm.Frontier { array; messages; _ } ->
      List.iter (Shim.deliver m.shim ~array) messages

(* -- the parallel run *)

(* Replayed reads are recorded per (round, phase, parallel iteration)
   stream, -1 for the serial statements; within one stream the parallel
   run reads in exactly the replay's order (same closures, same
   nesting), so the stream's cursor pairs each executed read with its
   sequential value.  Only the iteration's owner reads a stream. *)
let read_budget = 5_000_000

type stream = { mutable vals : Float.Array.t; mutable len : int; mutable pos : int }

let stream () = { vals = Float.Array.create 0; len = 0; pos = 0 }
let unrecorded = stream ()

let grow s =
  let a = Float.Array.create (max 16 (2 * s.len)) in
  Float.Array.blit s.vals 0 a 0 s.len;
  s.vals <- a

let[@inline] push s v =
  if s.len = Float.Array.length s.vals then grow s;
  Float.Array.set s.vals s.len v;
  s.len <- s.len + 1

type job = Quit | Sweep of int * int  (* round, phase *)

type state = {
  m : machine;
  spin : int;
  check_reads : bool;
  expected : (int * int * int, stream) Hashtbl.t;
  stale : int array;
  stale_examples : (string * int * int) list ref array;
  worker_errors : string option array;
  ready : Shim.Barrier.t;
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

let stale st ~me ~k array addr =
  st.stale.(me) <- st.stale.(me) + 1;
  let ex = st.stale_examples.(me) in
  if List.length !ex < 4 then ex := (array, addr, k) :: !ex

(* Processor [me]'s binding in phase [k] of [round]: a read is served
   by {!served} and paired with the replay's stream, a write stores its
   assignment's sum plus the salt through {!store}. *)
let par_consumer st (t : Shim.counters) ~me ~round ~k : Compile.consumer =
  let find i =
    Option.value ~default:unrecorded (Hashtbl.find_opt st.expected (round, k, i))
  in
  let serial = find (-1) and cur = ref unrecorded and acc = { sum = 0.0 } in
  let bind (s : Compile.site) =
    let a = accessor st.m ~me ~k s.array in
    match s.access with
    | Ir.Types.Read ->
        fun addr ->
          let w = served a addr in
          if w == a.own then t.local <- t.local + 1 else t.gets <- t.gets + 1;
          let v = Bigarray.Array1.get w addr in
          acc.sum <- acc.sum +. v;
          let str = if s.parallel then !cur else serial in
          if str.pos < str.len then begin
            t.checked <- t.checked + 1;
            if v <> Float.Array.get str.vals str.pos then stale st ~me ~k s.array addr;
            str.pos <- str.pos + 1
          end
    | Ir.Types.Write ->
        fun addr ->
          if store a addr (acc.sum +. stamp ~round ~k ~site:s.index ~addr) then
            t.puts <- t.puts + 1
          else t.local <- t.local + 1
  in
  let iteration i = if st.check_reads then cur := find i in
  { bind; assign = assign acc st.spin; iteration; sync = (fun () -> Shim.Barrier.await st.sync) }

let run_share st ~me ~round ~k =
  let t0 = now () in
  let t = Shim.counters () in
  st.m.compiled.(k).sweep ~me:(Some me) (par_consumer st t ~me ~round ~k);
  let c = st.m.shim.counters.(me) in
  c.gets <- c.gets + t.gets;
  c.puts <- c.puts + t.puts;
  c.local <- c.local + t.local;
  c.checked <- c.checked + t.checked;
  c.busy <- c.busy +. (now () -. t0)

let worker st p =
  Shim.Barrier.await st.ready;
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
  let m = machine ~on_error lcg plan in
  (* -- sequential replay: golden contents and expected reads *)
  let golden = Shim.create ~h:1 m.sizes in
  (* cells written during the final layout epoch (last round): the ones
     whose freshest value the epoch's owner is guaranteed to hold *)
  let final_mask = Hashtbl.create 8 in
  let final array = Distribution.placement plan ~array ~phase_idx:(nphases - 1) in
  let in_final_epoch k array =
    match (final array, Distribution.placement plan ~array ~phase_idx:k) with
    | Some lf, Some l -> l.first_phase = lf.first_phase
    | _ -> false
  in
  List.iter
    (fun (n, s) -> Hashtbl.replace final_mask n (Bytes.make (max 1 s) '\000'))
    m.sizes;
  let expected = Hashtbl.create 256 in
  let budget = ref (if check_reads then read_budget else 0) and unchecked = ref 0 in
  let replay ~round ~k : Compile.consumer =
    let find i =
      match Hashtbl.find_opt expected (round, k, i) with
      | Some s -> s
      | None ->
          let s = stream () in
          Hashtbl.add expected (round, k, i) s;
          s
    in
    let serial = find (-1) and cur = ref unrecorded and acc = { sum = 0.0 } in
    let bind (s : Compile.site) =
      let g = Shim.window golden ~proc:0 ~array:s.array in
      match s.access with
      | Ir.Types.Read ->
          fun addr ->
            in_bounds g ~array:s.array addr;
            let v = Bigarray.Array1.get g addr in
            acc.sum <- acc.sum +. v;
            if !budget > 0 then begin
              push (if s.parallel then !cur else serial) v;
              decr budget
            end
            else if check_reads then incr unchecked
      | Ir.Types.Write ->
          let marks = round = rounds - 1 && in_final_epoch k s.array in
          let mask = Hashtbl.find final_mask s.array in
          fun addr ->
            in_bounds g ~array:s.array addr;
            Bigarray.Array1.set g addr (acc.sum +. stamp ~round ~k ~site:s.index ~addr);
            if marks then Bytes.set mask addr '\001'
    in
    let iteration i = if !budget > 0 then cur := find i in
    { bind; assign = assign acc spin; iteration; sync = ignore }
  in
  let t0 = now () in
  for round = 0 to rounds - 1 do
    Array.iteri (fun k (cp : Compile.t) -> cp.sweep ~me:None (replay ~round ~k)) m.compiled
  done;
  let wall_seq = now () -. t0 in
  (* -- expected schedule: the walk's gating, delivering nothing *)
  let exp_msgs = ref 0 and exp_words = ref 0 in
  Comm.walk ~rounds ~sched:m.sched ~phases
    ~step:(fun ~round:_ ~k:_ _ ~incoming ~outgoing ->
      let events = incoming @ outgoing in
      exp_msgs := !exp_msgs + Comm.message_count events;
      exp_words := !exp_words + Comm.total_words events);
  (* -- parallel run on h domains (this thread is processor 0) *)
  let st =
    {
      m;
      spin;
      check_reads;
      expected;
      stale = Array.make h 0;
      stale_examples = Array.init h (fun _ -> ref []);
      worker_errors = Array.make h None;
      ready = Shim.Barrier.create h;
      start = Shim.Barrier.create h;
      fin = Shim.Barrier.create h;
      sync = Shim.Barrier.create h;
      job = Quit;
    }
  in
  (* Empty the minor heap (the machine and the replay's leftovers)
     before the workers start: without it, a process running the
     executor again and again grew its major heap by one 32 KB pool per
     run (OCaml 5.1; dsmbench exec: +4 MB peak RSS over 150 runs). *)
  Gc.minor ();
  let domains =
    List.init (h - 1) (fun i -> Domain.spawn (fun () -> worker st (i + 1)))
  in
  (* the clock starts once every worker is up: domain start-up is not
     part of the parallel run *)
  Shim.Barrier.await st.ready;
  let t0 = now () in
  Comm.walk ~rounds ~sched:m.sched ~phases
    ~step:(fun ~round ~k _ ~incoming ~outgoing ->
      List.iter (deliver m) incoming;
      sweep st ~round ~k;
      List.iter (deliver m) outgoing);
  let wall_par = now () -. t0 in
  st.job <- Quit;
  Shim.Barrier.await st.start;
  Shim.Barrier.await st.fin;
  List.iter Domain.join domains;
  Array.iter
    (function Some e -> errors := e :: !errors | None -> ())
    st.worker_errors;
  (* -- content parity under the final epoch's owners, one owner
     window per constant-owner segment of the final layout *)
  let content_cells = ref 0 and content_mismatches = ref 0 in
  let compared = ref [] and skipped = ref [] in
  List.iter
    (fun (name, size) ->
      match final name with
      | None -> skipped := name :: !skipped
      | Some l ->
          let g = Shim.window golden ~proc:0 ~array:name in
          let wins = Hashtbl.find m.shim.replicas name in
          let mask = Hashtbl.find final_mask name in
          let own = Distribution.own_of ~h l in
          let any = ref false in
          Symbolic.Lattice.Own.segments own own ~lo:0 ~hi:(size - 1)
            (fun lo hi owner _ ->
              let w = wins.(owner) in
              for a = lo to hi do
                if Bytes.get mask a = '\001' then begin
                  any := true;
                  incr content_cells;
                  if Bigarray.Array1.get w a <> Bigarray.Array1.get g a then
                    incr content_mismatches
                end
              done);
          if !any then compared := name :: !compared
          else skipped := name :: !skipped)
    m.sizes;
  let sum f = Array.fold_left (fun a c -> a + f c) 0 m.shim.counters in
  let wall_seq = if wall_seq <= 0.0 then epsilon_float else wall_seq in
  let wall_par = if wall_par <= 0.0 then epsilon_float else wall_par in
  {
    h;
    rounds;
    wall_par;
    wall_seq;
    speedup = wall_seq /. wall_par;
    busy = Array.map (fun (c : Shim.counters) -> c.busy) m.shim.counters;
    sched_messages = sum (fun c -> c.sched_msgs);
    sched_words = sum (fun c -> c.sched_words);
    expected_messages = !exp_msgs;
    expected_words = !exp_words;
    remote_gets = sum (fun c -> c.gets);
    remote_puts = sum (fun c -> c.puts);
    local_accesses = sum (fun c -> c.local);
    reads_checked = sum (fun c -> c.checked);
    reads_unchecked = !unchecked;
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
