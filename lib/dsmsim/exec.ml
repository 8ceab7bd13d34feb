open Locality
open Ilp

type phase_stats = {
  name : string;
  local : int;
  remote : int;
  compute : int;
  time : float;
}

type comm_kind = Redistribution | Frontier_update

type comm_stats = {
  array : string;
  kind : comm_kind;
  before_phase : int;
  words : int;
  time : float;
}

type proc_stats = {
  compute_time : float;
  access_time : float;  (** local + remote access cycles *)
}

type run = {
  h : int;
  phases : phase_stats list;
  comms : comm_stats list;
  par_time : float;
  seq_time : float;
  efficiency : float;
  total_local : int;
  total_remote : int;
  per_proc : proc_stats array;
}

module L = Symbolic.Lattice

(* Everything one phase contributes per round: the same accesses play
   out every round, so the accounting is computed once and applied per
   round. *)
type summary = {
  s_local : int;
  s_remote : int;
  s_compute : int;
  s_time : float;  (** the busiest processor's work + access cycles *)
  s_pcompute : float array;
  s_paccess : float array;
  s_seq : float;  (** contribution to the serialized baseline *)
}

(* Prices one phase's tally.  A read is local when owned, in the ghost
   zone (Theorem 1c) or fully replicated, a write only when owned;
   remote reads pay the full round trip (t_remote), remote writes are
   single-sided pipelined puts (t_put).  Integer arithmetic is
   overflow-checked, and sums of integers below 2^53 convert to exact
   floats, so both accountings report bit-for-bit the same times.  A
   halo'd array whose size does not evaluate cannot be shown fully
   replicated: its reads are priced as not replicated, and [unsized]
   is told why. *)
let price_tally (m : Cost.machine) (lcg : Lcg.t) ~unsized ~h placements
    (tallies : Distribution.tally array) =
  let ( + ) = L.Safe.add and ( * ) = L.Safe.mul in
  let local = ref 0 and remote = ref 0 and seq = ref 0 in
  let pcomp = Array.make h 0 and pacc = Array.make h 0 in
  List.iteri
    (fun i (_, layout) ->
      (* asked only when the array is read, like the ownership test *)
      let replicated =
        lazy
          (match layout with
          | Some (l : Distribution.layout) ->
              (if l.halo > 0 then
                 match List.assoc l.array lcg.sizes with Error why -> unsized l.array why | Ok _ -> ());
              Distribution.fully_replicated lcg l
          | None -> false)
      in
      let side ~read ~cost (c : Owncount.counts) =
        for p0 = 0 to h - 1 do
          let e = c.events.(p0) and wk = c.work.(p0) in
          let lh =
            if read && e > 0 && Lazy.force replicated then e
            else c.owned.(p0) + c.ghost.(p0)
          in
          let rh = e - lh in
          local := !local + lh;
          remote := !remote + rh;
          pcomp.(p0) <- pcomp.(p0) + wk;
          pacc.(p0) <- pacc.(p0) + (m.t_local * lh) + (cost * rh);
          seq := !seq + wk + (m.t_local * e)
        done
      in
      side ~read:true ~cost:m.t_remote tallies.(i).reads;
      side ~read:false ~cost:m.t_put tallies.(i).writes)
    placements;
  {
    s_local = !local;
    s_remote = !remote;
    s_compute = Array.fold_left ( + ) 0 pcomp;
    s_time = float_of_int (Array.fold_left max 0 (Array.map2 ( + ) pcomp pacc));
    s_pcompute = Array.map float_of_int pcomp;
    s_paccess = Array.map float_of_int pacc;
    s_seq = float_of_int !seq;
  }

(* One tally per phase over every declared array; a privatized or
   undistributed array is placed nowhere, so all its accesses are
   local. *)
let summarize (lcg : Lcg.t) (plan : Distribution.plan) (m : Cost.machine) ~unsized
    k ph =
  let h = plan.h and chunk = plan.chunk.(k) in
  let placements =
    List.map
      (fun (d : Ir.Types.array_decl) ->
        (d.name, Distribution.placement plan ~array:d.name ~phase_idx:k))
      lcg.prog.arrays
  in
  let price = price_tally m lcg ~unsized ~h placements in
  L.closed_or_enumerate ~stage:"exec"
    ~reason:(fun () -> "phase " ^ ph.Ir.Types.phase_name ^ " accounting")
    ~symbolic:(fun () ->
      Option.bind (Distribution.tally_symbolic lcg k ~chunk ~h placements)
        (fun t -> try Some (price t) with L.Overflow -> None))
    ~enum:(fun () ->
      price (Distribution.tally_enum lcg ph ~chunk ~h placements))

let exec_timer = Symbolic.Metrics.timer "dsmsim.exec"
let msg_count = Symbolic.Metrics.counter "exec.messages"
let word_count = Symbolic.Metrics.counter "exec.words"
let local_count = Symbolic.Metrics.counter "exec.local"
let remote_count = Symbolic.Metrics.counter "exec.remote"

let words_of messages =
  List.fold_left (fun a (msg : Comm.message) -> a + msg.words) 0 messages

(* Per-processor cost of one communication event: every processor
   overlaps its own sends and receives; the event completes when the
   busiest processor does. *)
let event_time (m : Cost.machine) ~h messages =
  let sends = Array.make h 0 and recvs = Array.make h 0 in
  let msgs = Array.make h 0 in
  List.iter
    (fun (msg : Comm.message) ->
      Symbolic.Metrics.incr msg_count;
      Symbolic.Metrics.incr word_count ~by:msg.words;
      sends.(msg.src) <- sends.(msg.src) + msg.words;
      recvs.(msg.dst) <- recvs.(msg.dst) + msg.words;
      msgs.(msg.src) <- msgs.(msg.src) + 1)
    messages;
  let worst = ref 0.0 in
  for p0 = 0 to h - 1 do
    let t =
      float_of_int (msgs.(p0) * m.t_startup)
      +. float_of_int ((sends.(p0) + recvs.(p0)) * m.t_word)
    in
    if t > !worst then worst := t
  done;
  !worst

(* Summation order is part of the contract: [par_time] starts at 0,
   each redistribution's time is added as it fires, then phase time
   plus the summed frontier time in one addition, so reports stay
   bit-identical across refactors (the golden simulator table pins
   it). *)
let run ?(rounds = 1) ?on_error (lcg : Lcg.t) (plan : Distribution.plan)
    (m : Cost.machine) : run =
  Symbolic.Metrics.with_timer exec_timer @@ fun () ->
  let sched = Comm.generate ?on_error lcg plan in
  let h = plan.h in
  (* Reported once per array, whichever phases read it. *)
  let told = Hashtbl.create 4 in
  let unsized array why =
    if not (Hashtbl.mem told array) then begin
      Hashtbl.add told array ();
      Option.iter
        (fun report ->
          report
            (Printf.sprintf "array %s: size %s; its reads were priced as not replicated" array
               (Comm.size_failure why)))
        on_error
    end
  in
  (* The same accesses play out every round: summarize each phase once. *)
  let summaries =
    Array.of_list (List.mapi (summarize lcg plan m ~unsized) lcg.prog.phases)
  in
  let proc_compute = Array.make h 0.0 and proc_access = Array.make h 0.0 in
  let phases = ref [] and comms = ref [] in
  let total_local = ref 0 and total_remote = ref 0 in
  let par_time = ref 0.0 and seq_time = ref 0.0 in
  let price kind ~before_phase array messages =
    let time = event_time m ~h messages in
    comms :=
      { array; kind; before_phase; words = words_of messages; time } :: !comms;
    time
  in
  Comm.walk ~rounds ~sched ~phases:lcg.prog.phases
    ~step:(fun ~round:_ ~k (ph : Ir.Types.phase) ~incoming ~outgoing ->
      List.iter
        (function
          | Comm.Redistribute { array; messages; _ } ->
              par_time :=
                !par_time +. price Redistribution ~before_phase:k array messages
          | Comm.Frontier _ -> ())
        incoming;
      let s = summaries.(k) in
      for p0 = 0 to h - 1 do
        proc_compute.(p0) <- proc_compute.(p0) +. s.s_pcompute.(p0);
        proc_access.(p0) <- proc_access.(p0) +. s.s_paccess.(p0)
      done;
      (* Direct remote accesses are one-sided single-word gets/puts;
         they are traffic just as the aggregated schedule events are,
         so the message metrics count them on both accounting modes
         (the summaries are mode-independent by the enum-parity
         oracle). *)
      Symbolic.Metrics.incr msg_count ~by:s.s_remote;
      Symbolic.Metrics.incr word_count ~by:s.s_remote;
      seq_time := !seq_time +. s.s_seq;
      let frontier_t =
        List.fold_left
          (fun acc -> function
            | Comm.Frontier { array; messages; _ } ->
                acc
                +. price Frontier_update ~before_phase:(k + 1) array messages
            | Comm.Redistribute _ -> acc)
          0.0 outgoing
      in
      par_time := !par_time +. s.s_time +. frontier_t;
      total_local := !total_local + s.s_local;
      total_remote := !total_remote + s.s_remote;
      phases :=
        {
          name = ph.phase_name;
          local = s.s_local;
          remote = s.s_remote;
          compute = s.s_compute;
          time = s.s_time;
        }
        :: !phases);
  Symbolic.Metrics.incr local_count ~by:!total_local;
  Symbolic.Metrics.incr remote_count ~by:!total_remote;
  let par = !par_time and seq = !seq_time in
  {
    h;
    phases = List.rev !phases;
    comms = List.rev !comms;
    par_time = par;
    seq_time = seq;
    efficiency = (if par <= 0.0 then 1.0 else seq /. (float_of_int h *. par));
    total_local = !total_local;
    total_remote = !total_remote;
    per_proc =
      Array.init h (fun p0 ->
          { compute_time = proc_compute.(p0); access_time = proc_access.(p0) });
  }

let pp ppf (r : run) =
  Format.fprintf ppf
    "@[<v>H=%d  T_par=%.0f  T_seq=%.0f  efficiency=%.1f%%  local=%d remote=%d@,"
    r.h r.par_time r.seq_time (100.0 *. r.efficiency) r.total_local
    r.total_remote;
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-6s local=%-8d remote=%-8d t=%.0f@," p.name
        p.local p.remote p.time)
    r.phases;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %s %s %s phase %d: %d words (t=%.0f)@,"
        (match c.kind with
        | Redistribution -> "redistribute"
        | Frontier_update -> "frontier")
        c.array
        (match c.kind with Redistribution -> "before" | Frontier_update -> "after")
        c.before_phase c.words c.time)
    r.comms;
  Format.fprintf ppf "@]"
