(* Jobs on domains; see jobs.mli for the contract and DESIGN.md
   section 13.  The calling domain spawns a domain per job while fewer
   than [workers] are alive, then waits on [finished] for any of them:
   a job domain pushes its index there as its last act, so the join
   that follows returns at once. *)

open Symbolic

type 'r outcome = Done of { value : 'r; metrics : Metrics.snapshot } | Failed of string

let max_domains = 128

(* The probe stream is seeded from the job index alone; everything
   else a job reads starts fresh on its domain. *)
let run f idx job =
  match Probe.with_seed (1999 + idx) (fun () -> f job) with
  | value -> Done { value; metrics = Metrics.snapshot () }
  | exception e -> Failed (Printexc.to_string e)

let map ?(workers = 4) ?stream ~f jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  (* More running domains than cores make every minor collection,
     which stops all of them, wait on a descheduled one. *)
  let workers = max 1 (min (min workers n) (Domain.recommended_domain_count ())) in
  let domains = Array.make n None in
  let results = Array.make n None in
  let lock = Mutex.create () and cond = Condition.create () in
  let finished = Queue.create () in
  let spawn i =
    domains.(i) <-
      Some
        (Domain.spawn (fun () ->
             let o = run f i jobs.(i) in
             Mutex.protect lock (fun () ->
                 Queue.push i finished;
                 Condition.signal cond);
             o))
  in
  let join i =
    Option.iter (fun d -> results.(i) <- Some (Domain.join d)) domains.(i);
    domains.(i) <- None
  in
  let next = ref 0 and live = ref 0 and streamed = ref 0 in
  (* a raising [stream] still waits for the jobs in flight *)
  Fun.protect ~finally:(fun () -> Array.iteri (fun i _ -> join i) domains) (fun () ->
      while !streamed < n do
        while !live < workers && !next < n do
          spawn !next;
          incr next;
          incr live
        done;
        let done_ =
          Mutex.protect lock (fun () ->
              while Queue.is_empty finished do
                Condition.wait cond lock
              done;
              let l = List.of_seq (Queue.to_seq finished) in
              Queue.clear finished;
              l)
        in
        List.iter
          (fun i ->
            join i;
            decr live)
          done_;
        while !streamed < n && results.(!streamed) <> None do
          Option.iter (fun g -> g !streamed (Option.get results.(!streamed))) stream;
          incr streamed
        done
      done);
  let outcomes = Array.to_list (Array.map Option.get results) in
  let merged =
    List.fold_left
      (fun acc -> function Done { metrics; _ } -> Metrics.merge acc metrics | Failed _ -> acc)
      { Metrics.counters = []; timers = []; caches = [] }
      outcomes
  in
  (outcomes, merged)
