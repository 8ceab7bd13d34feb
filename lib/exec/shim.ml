module A = Bigarray.Array1

type window = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

(* Per-domain traffic clocks.  Sweeps count into a record of their own
   and add it to their domain's once they end; sums are read after the
   barriers. *)
type counters = {
  mutable sched_msgs : int;
  mutable sched_words : int;
  mutable gets : int;
  mutable puts : int;
  mutable local : int;
  mutable checked : int;
  mutable busy : float;
}

type t = {
  h : int;
  replicas : (string, window array) Hashtbl.t;
  counters : counters array;
}

let counters () =
  { sched_msgs = 0; sched_words = 0; gets = 0; puts = 0; local = 0;
    checked = 0; busy = 0.0 }

let create ~h sizes =
  let replicas = Hashtbl.create 8 in
  List.iter
    (fun (name, size) ->
      let mk _ =
        let w = A.create Bigarray.float64 Bigarray.c_layout (max 1 size) in
        A.fill w 0.0;
        w
      in
      Hashtbl.replace replicas name (Array.init h mk))
    sizes;
  { h; replicas; counters = Array.init h (fun _ -> counters ()) }

let window t ~proc ~array = (Hashtbl.find t.replicas array).(proc)

let deliver t ~array (m : Dsmsim.Comm.message) =
  let src = window t ~proc:m.src ~array in
  let dst = window t ~proc:m.dst ~array in
  List.iter
    (fun (r : Symbolic.Lattice.Prog.t) ->
      for k = 0 to r.count - 1 do
        let lo = r.first + (k * r.stride) in
        for a = lo to lo + r.width - 1 do
          A.set dst a (A.get src a)
        done
      done)
    m.ranges;
  let c = t.counters.(m.src) in
  c.sched_msgs <- c.sched_msgs + 1;
  c.sched_words <- c.sched_words + m.words

(* Sense-reversing barrier: [await] blocks until all [n] participants
   arrive; reusable any number of times.  A domain that dies mid-sweep
   would leave the others parked forever, so the error path [poison]s
   the barrier: every current and future [await] returns immediately
   (the run's results are already flagged unusable at that point). *)
module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    n : int;
    mutable count : int;
    mutable epoch : int;
    mutable poisoned : bool;
  }

  let create n =
    {
      m = Mutex.create ();
      c = Condition.create ();
      n;
      count = 0;
      epoch = 0;
      poisoned = false;
    }

  let await b =
    Mutex.lock b.m;
    let e = b.epoch in
    b.count <- b.count + 1;
    if b.count = b.n then begin
      b.count <- 0;
      b.epoch <- b.epoch + 1;
      Condition.broadcast b.c
    end
    else
      while (not b.poisoned) && b.epoch = e do
        Condition.wait b.c b.m
      done;
    Mutex.unlock b.m

  let poison b =
    Mutex.lock b.m;
    b.poisoned <- true;
    Condition.broadcast b.c;
    Mutex.unlock b.m
end
