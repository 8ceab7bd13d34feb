(* Named counters, timers and cache statistics.  The catalog of cells
   (name, kind, slot) is process-wide and only grows; the numbers are
   domain-local: each domain counts into its own slots, and a fresh
   domain starts at zero.  [reset] zeroes the calling domain's numbers
   but keeps the cells, so a handle obtained at module-initialization
   time stays valid on every domain and across resets. *)

type kind = Counter | Timer | Cache

(* A handle is the cell's slot. *)
type counter = int
type timer = int
type cache = int

(* One cell's numbers on one domain.  A counter uses [a]; a cache [a]
   (hits) and [b] (misses); a timer [a] (calls), [secs] and [depth],
   the reentrancy guard: only the outermost call times. *)
type slot = {
  mutable a : int;
  mutable b : int;
  mutable secs : float;
  mutable depth : int;
}

let lock = Mutex.create ()
let index : (string, kind * int) Hashtbl.t = Hashtbl.create 64

(* Creation order, newest first, so reports are stable and grouped the
   way the cells were introduced rather than in hash order.  The slot
   of the n-th cell is n. *)
let cells : (string * kind * int) list ref = ref []

let find_or_create name kind =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt index name with
      | Some (k, i) when k = kind -> i
      | Some _ -> invalid_arg ("Metrics: cell kind mismatch for " ^ name)
      | None ->
          let i = Hashtbl.length index in
          Hashtbl.add index name (kind, i);
          cells := (name, kind, i) :: !cells;
          i)

let counter name = find_or_create name Counter
let timer name = find_or_create name Timer
let cache name = find_or_create name Cache

let fresh () = { a = 0; b = 0; secs = 0.0; depth = 0 }
let slots : slot array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

(* Growing keeps the slot records, so a slot held across a growth (by
   [with_timer], or as a [local] handle) is still the cell's. *)
let grow old i =
  let n = Array.length old in
  let a =
    Array.init (max (i + 1) (max 64 (2 * n))) (fun j -> if j < n then old.(j) else fresh ())
  in
  Domain.DLS.set slots a;
  a.(i)

let slot i =
  let a = Domain.DLS.get slots in
  if i < Array.length a then Array.unsafe_get a i else grow a i

(* A handle on one cell's slot on the calling domain. *)
type local = slot

let local_counter = slot
let local_cache = slot
let incr_local s = s.a <- s.a + 1
let hit_local s = s.a <- s.a + 1
let miss_local s = s.b <- s.b + 1

let incr ?(by = 1) c =
  let s = slot c in
  s.a <- s.a + by

let now = Unix.gettimeofday

let with_timer t f =
  let s = slot t in
  s.a <- s.a + 1;
  if s.depth > 0 then begin
    (* Recursive entry: count the call but let the outer frame own the
       wall clock, otherwise recursion double-bills. *)
    s.depth <- s.depth + 1;
    Fun.protect ~finally:(fun () -> s.depth <- s.depth - 1) f
  end
  else begin
    s.depth <- 1;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        s.secs <- s.secs +. (now () -. t0);
        s.depth <- s.depth - 1)
      f
  end

let reset () =
  Array.iter
    (fun s ->
      s.a <- 0;
      s.b <- 0;
      s.secs <- 0.0)
    (Domain.DLS.get slots)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type snapshot = {
  counters : (string * int) list;
  timers : (string * (int * float)) list;  (** calls, seconds *)
  caches : (string * (int * int)) list;  (** hits, misses *)
}

let snapshot () =
  let cells = List.rev (Mutex.protect lock (fun () -> !cells)) in
  let a = Domain.DLS.get slots in
  let pick kind value =
    List.filter_map
      (fun (n, k, i) ->
        if k <> kind then None
        else Some (n, value (if i < Array.length a then a.(i) else fresh ())))
      cells
  in
  {
    counters = pick Counter (fun s -> s.a);
    timers = pick Timer (fun s -> (s.a, s.secs));
    caches = pick Cache (fun s -> (s.a, s.b));
  }

(* Fleet-wide aggregation: each batch job reports the snapshot of its
   own domain; the caller folds them into one registry-shaped view by
   adding the numbers. *)
let merge (a : snapshot) (b : snapshot) : snapshot =
  let union ~combine xs ys =
    let merged =
      List.map
        (fun (n, v) ->
          match List.assoc_opt n ys with
          | Some w -> (n, combine v w)
          | None -> (n, v))
        xs
    in
    merged @ List.filter (fun (n, _) -> not (List.mem_assoc n xs)) ys
  in
  {
    counters = union ~combine:( + ) a.counters b.counters;
    timers =
      union
        ~combine:(fun (c1, s1) (c2, s2) -> (c1 + c2, s1 +. s2))
        a.timers b.timers;
    caches =
      union
        ~combine:(fun (h1, m1) (h2, m2) -> (h1 + h2, m1 + m2))
        a.caches b.caches;
  }

let absorb (s : snapshot) =
  List.iter (fun (n, v) -> incr (counter n) ~by:v) s.counters;
  List.iter
    (fun (n, (calls, secs)) ->
      let t = slot (timer n) in
      t.a <- t.a + calls;
      t.secs <- t.secs +. secs)
    s.timers;
  List.iter
    (fun (n, (hits, misses)) ->
      let c = slot (cache n) in
      c.a <- c.a + hits;
      c.b <- c.b + misses)
    s.caches

(* Only the cells this run touched: a timer with calls, a cache with
   lookups, a nonzero counter.  [snapshot] and [to_json] keep every
   registered cell. *)
let pp_table ppf (s : snapshot) =
  let line fmt = Format.fprintf ppf fmt in
  let section header cells row =
    if cells <> [] then begin
      header ();
      List.iter row cells
    end
  in
  section
    (fun () -> line "%-28s %10s %14s %12s@," "timer" "calls" "total ms" "ms/call")
    (List.filter (fun (_, (calls, _)) -> calls > 0) s.timers)
    (fun (n, (calls, sec)) ->
      line "%-28s %10d %14.3f %12.5f@," n calls (1000. *. sec)
        (1000. *. sec /. float_of_int calls));
  section
    (fun () -> line "%-28s %10s %10s %12s@," "cache" "hits" "misses" "hit rate")
    (List.filter (fun (_, (h, m)) -> h + m > 0) s.caches)
    (fun (n, (h, m)) ->
      line "%-28s %10d %10d %11.1f%%@," n h m
        (100. *. float_of_int h /. float_of_int (h + m)));
  section
    (fun () -> line "%-28s %10s@," "counter" "value")
    (List.filter (fun (_, v) -> v <> 0) s.counters)
    (fun (n, v) -> line "%-28s %10d@," n v)

(* ------------------------------------------------------------------ *)
(* JSON rendering - hand-rolled so the registry stays dependency-free.
   Only cell names reach string positions; escape the JSON specials. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* NaN / infinities are not JSON numbers; map them to null. *)
let json_float f =
  if Float.is_nan f || not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ json_escape k ^ "\":" ^ v) fields) ^ "}"

let to_json (s : snapshot) =
  json_obj
    [
      ( "timers",
        json_obj
          (List.map
             (fun (n, (calls, sec)) ->
               ( n,
                 json_obj
                   [
                     ("calls", string_of_int calls);
                     ("seconds", json_float sec);
                   ] ))
             s.timers) );
      ( "caches",
        json_obj
          (List.map
             (fun (n, (h, m)) ->
               let total = h + m in
               ( n,
                 json_obj
                   [
                     ("hits", string_of_int h);
                     ("misses", string_of_int m);
                     ( "hit_rate",
                       json_float
                         (if total = 0 then 0.0
                          else float_of_int h /. float_of_int total) );
                   ] ))
             s.caches) );
      ( "counters",
        json_obj (List.map (fun (n, v) -> (n, string_of_int v)) s.counters) );
    ]
