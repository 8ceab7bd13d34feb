(* Forked worker pool: the parent owns the work queue and feeds workers
   over per-worker pipes; see pool.mli for the contract and DESIGN.md
   section 13 for the pipe framing.

   Framing: every message, both directions, is an 8-byte big-endian
   length followed by that many bytes of [Marshal] payload.  A worker
   writes each result frame with one buffered flush, so the parent can
   treat "select says readable, then the frame truncates" as worker
   death: a healthy worker never parks mid-frame.  Lengths are
   validated against a hard cap before any allocation: a corrupt
   prefix is a [`Bad] frame, never an [Out_of_memory] in the parent. *)

open Symbolic

type 'r outcome =
  | Done of {
      value : 'r;
      attempts : int;
      lost : string list;
      metrics : Metrics.snapshot;
    }
  | Failed of { attempts : int; reasons : string list }

(* parent -> worker *)
type 'a job_msg = Job of int * int * 'a (* idx, attempt, payload *) | Stop

(* worker -> parent frames are
   [int * ('b, string) result * Metrics.snapshot]:
   idx, result-or-exception, the job's metrics *)

let empty_snapshot = { Metrics.counters = []; timers = []; caches = [] }

(* ------------------------------------------------------------------ *)
(* Framed marshal transport over raw fds *)

let default_frame_cap = 1 lsl 28 (* 256 MiB: far above any real frame *)

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let write_all fd buf =
  let len = Bytes.length buf in
  let ofs = ref 0 in
  while !ofs < len do
    let n = restart (fun () -> Unix.write fd buf !ofs (len - !ofs)) in
    ofs := !ofs + n
  done

(* [None] on EOF, including EOF mid-buffer (a worker killed mid-frame
   leaves a truncated frame behind). *)
let read_exact fd len =
  let buf = Bytes.create len in
  let ofs = ref 0 in
  let eof = ref false in
  while (not !eof) && !ofs < len do
    let n = restart (fun () -> Unix.read fd buf !ofs (len - !ofs)) in
    if n = 0 then eof := true else ofs := !ofs + n
  done;
  if !eof then None else Some buf

let send fd v =
  let payload = Marshal.to_bytes v [] in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_be hdr 0 (Int64.of_int (Bytes.length payload));
  write_all fd hdr;
  write_all fd payload

(* Total receive: a corrupt or adversarial length prefix (negative or
   over the cap) and an undecodable payload both come back as [`Bad],
   distinct from [`Eof] (peer death). *)
let recv fd =
  match read_exact fd 8 with
  | None -> `Eof
  | Some hdr -> (
      let len64 = Bytes.get_int64_be hdr 0 in
      if
        Int64.compare len64 0L < 0
        || Int64.compare len64 (Int64.of_int default_frame_cap) > 0
      then
        `Bad
          (Printf.sprintf "frame length %Ld exceeds cap %d" len64
             default_frame_cap)
      else
        match read_exact fd (Int64.to_int len64) with
        | None -> `Eof
        | Some payload -> (
            match Marshal.from_bytes payload 0 with
            | v -> `Frame v
            | exception (Failure msg | Invalid_argument msg) ->
                `Bad ("undecodable frame: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* Workers *)

type worker = {
  pid : int;
  job_w : Unix.file_descr;  (* parent writes job frames *)
  res_r : Unix.file_descr;  (* parent reads result frames *)
  mutable running : int option;  (* job index in flight *)
  mutable death_note : string option;
      (* parent-side kill reason (bad frame) overriding the reaped wait
         status *)
  mutable reaped : bool;
}

(* Per-job seed for the probe stream: derived from the job index alone
   so a job's randomized decisions are identical whichever worker runs
   it and whatever ran on that worker before. *)
let job_seed idx = 1999 + idx

let worker_loop ~f job_r res_w =
  let rec loop () =
    match recv job_r with
    | `Eof | `Bad _ | `Frame Stop -> ()
    | `Frame (Job (idx, attempt, payload)) ->
        (* Per-job reset protocol (DESIGN.md section 14): zero the
           metric cells and drop the expression intern table;
           [with_seed] below drops every artifact store and pins the
           probe stream to the job index, so a job's result and profile
           are identical whichever worker runs it and whatever ran on
           that worker before. *)
        Metrics.reset ();
        Expr.intern_reset ();
        let result =
          Probe.with_seed (job_seed idx) (fun () ->
              try Ok (f ~attempt payload)
              with e -> Error (Printexc.to_string e))
        in
        send res_w (idx, result, Metrics.snapshot ());
        loop ()
  in
  loop ()

(* Fork one worker.  [sibling_fds] are the parent-side ends of every
   other live worker's pipes: the child closes its inherited copies so
   a sibling's death still reads as EOF/EPIPE in the parent. *)
let spawn ~f ~sibling_fds =
  let job_r, job_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) sibling_fds;
      Unix.close job_w;
      Unix.close res_r;
      (* _exit, not exit: the worker must not run the parent's at_exit
         handlers (the CLI's profile emitter) or flush its inherited
         copies of the parent's output buffers. *)
      (try worker_loop ~f job_r res_w with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Unix.close job_r;
      Unix.close res_w;
      {
        pid;
        job_w;
        res_r;
        running = None;
        death_note = None;
        reaped = false;
      }

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
  | Unix.WSIGNALED sg ->
      (* [waitpid] reports OCaml's own (negative) signal numbering *)
      let name =
        if sg = Sys.sigkill then "SIGKILL"
        else if sg = Sys.sigsegv then "SIGSEGV"
        else if sg = Sys.sigterm then "SIGTERM"
        else if sg = Sys.sigabrt then "SIGABRT"
        else Printf.sprintf "signal %d" sg
      in
      Printf.sprintf "worker killed by %s" name
  | Unix.WSTOPPED sg -> Printf.sprintf "worker stopped by signal %d" sg

let reap w =
  if w.reaped then "worker already reaped"
  else begin
    w.reaped <- true;
    match restart (fun () -> Unix.waitpid [] w.pid) with
    | _, status -> (
        match w.death_note with
        | Some note -> note
        | None -> describe_status status)
    | exception Unix.Unix_error _ -> "worker vanished"
  end

let close_worker_fds w =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ w.job_w; w.res_r ]

(* ------------------------------------------------------------------ *)

let jobs_counter = Metrics.counter "pool.jobs"
let crash_counter = Metrics.counter "pool.worker_lost"
let retry_counter = Metrics.counter "pool.retries"
let pool_timer = Metrics.timer "pool.map"
let bad_frame_counter = Metrics.counter "pool.bad_frames"

let map ?(workers = 4) ?(retries = 1) ?stream ~f jobs =
  let jobs_a = Array.of_list jobs in
  let nj = Array.length jobs_a in
  if nj = 0 then ([], empty_snapshot)
  else begin
    Metrics.with_timer pool_timer @@ fun () ->
    Metrics.incr jobs_counter ~by:nj;
    let results = Array.make nj None in
    let attempts = Array.make nj 0 in
    let failures = Array.make nj [] in
    (* Dead workers must surface as EPIPE/EOF, not as a parent kill. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let alive = ref [] in
    let completed = ref 0 in
    let stream_next = ref 0 in
    let pending = Queue.create () in
    Array.iteri (fun i _ -> Queue.add i pending) jobs_a;
    let sibling_fds () =
      List.concat_map (fun w -> [ w.job_w; w.res_r ]) !alive
    in
    let spawn_worker () =
      let w = spawn ~f ~sibling_fds:(sibling_fds ()) in
      alive := !alive @ [ w ];
      w
    in
    let record idx outcome =
      results.(idx) <- Some outcome;
      incr completed;
      while
        !stream_next < nj && results.(!stream_next) <> None
      do
        (match stream with
        | Some g -> g !stream_next (Option.get results.(!stream_next))
        | None -> ());
        incr stream_next
      done
    in
    let fail_attempt idx reason =
      failures.(idx) <- reason :: failures.(idx);
      if attempts.(idx) > retries then
        record idx
          (Failed
             { attempts = attempts.(idx); reasons = List.rev failures.(idx) })
      else begin
        Metrics.incr retry_counter;
        Queue.add idx pending
      end
    in
    let assign w idx =
      attempts.(idx) <- attempts.(idx) + 1;
      w.running <- Some idx;
      try send w.job_w (Job (idx, attempts.(idx), jobs_a.(idx)))
      with Unix.Unix_error (Unix.EPIPE, _, _) | Sys_error _ ->
        (* already dead: the EOF on its result pipe drives recovery *)
        ()
    in
    (* A worker's death - organic crash or babbling (bad frame) kill -
       always funnels here: reap it, replace it, and retry or fail the
       in-flight job. *)
    let handle_death w =
      Metrics.incr crash_counter;
      let reason = reap w in
      close_worker_fds w;
      alive := List.filter (fun w' -> w'.pid <> w.pid) !alive;
      let lost_job = w.running in
      let fresh =
        if !completed + List.length !alive < nj || lost_job <> None then
          Some (spawn_worker ())
        else None
      in
      match lost_job with
      | None -> ()
      | Some idx ->
          failures.(idx) <- reason :: failures.(idx);
          if attempts.(idx) > retries then
            record idx
              (Failed
                 { attempts = attempts.(idx); reasons = List.rev failures.(idx) })
          else begin
            Metrics.incr retry_counter;
            match fresh with
            | Some w' -> assign w' idx
            | None -> Queue.add idx pending
          end
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun w ->
            (try send w.job_w Stop
             with Unix.Unix_error _ | Sys_error _ -> ());
            close_worker_fds w;
            ignore (reap w))
          !alive;
        match old_sigpipe with
        | Some b -> Sys.set_signal Sys.sigpipe b
        | None -> ())
    @@ fun () ->
    for _ = 1 to max 1 (min workers nj) do
      ignore (spawn_worker ())
    done;
    while !completed < nj do
      (* hand work to idle workers *)
      List.iter
        (fun w ->
          if w.running = None && not (Queue.is_empty pending) then
            assign w (Queue.pop pending))
        !alive;
      let busy = List.filter (fun w -> w.running <> None) !alive in
      if busy = [] then
        (* every remaining job is queued but no worker took one: only
           possible if the pool emptied, which spawn/recovery prevents *)
        assert (Queue.is_empty pending && !completed = nj)
      else begin
        let fds = List.map (fun w -> w.res_r) busy in
        let readable, _, _ = restart (fun () -> Unix.select fds [] [] (-1.0)) in
        List.iter
          (fun fd ->
            match List.find_opt (fun w -> w.res_r = fd) !alive with
            | None -> () (* already handled as a casualty this round *)
            | Some w -> (
                match recv w.res_r with
                | `Frame (idx, result, metrics) -> (
                    w.running <- None;
                    match result with
                    | Ok value ->
                        record idx
                          (Done
                             {
                               value;
                               attempts = attempts.(idx);
                               lost = List.rev failures.(idx);
                               metrics;
                             })
                    | Error reason ->
                        fail_attempt idx ("job raised: " ^ reason))
                | `Bad msg ->
                    (* The worker is alive but its stream is garbage;
                       there is no resynchronising a marshal pipe, so
                       kill it and recover as for a crash. *)
                    Metrics.incr bad_frame_counter;
                    w.death_note <-
                      Some
                        (Printf.sprintf "corrupt result frame: %s (POOL-BAD-FRAME)"
                           msg);
                    (try Unix.kill w.pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    handle_death w
                | `Eof ->
                    (* EOF mid-stream: the worker died. *)
                    handle_death w))
          readable
      end
    done;
    let outcomes =
      Array.to_list (Array.map (fun r -> Option.get r) results)
    in
    let merged =
      List.fold_left
        (fun acc o ->
          match o with
          | Done { metrics; _ } -> Metrics.merge acc metrics
          | Failed _ -> acc)
        empty_snapshot outcomes
    in
    (outcomes, merged)
  end
