(* Process-wide registry of named counters, timers and cache
   statistics.  Cells are created on first use and live for the
   whole process; [reset] zeroes the numbers but keeps the cells, so a
   handle obtained at module-initialization time stays valid across
   resets (the profiling drivers reset between kernels). *)

type counter = { c_name : string; mutable count : int }

type timer = {
  t_name : string;
  mutable calls : int;
  mutable seconds : float;
  mutable depth : int;  (* reentrancy guard: only the outermost call times *)
}

type cache = { k_name : string; mutable hits : int; mutable misses : int }

type cell =
  | Counter of counter
  | Timer of timer
  | Cache of cache

let registry : (string, cell) Hashtbl.t = Hashtbl.create 64

(* Creation order, so reports are stable and grouped the way the cells
   were introduced rather than in hash order. *)
let order : string list ref = ref []

let find_or_create name make =
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.add registry name c;
      order := name :: !order;
      c

let mismatch name = invalid_arg ("Metrics: cell kind mismatch for " ^ name)

let counter name =
  match
    find_or_create name (fun () -> Counter { c_name = name; count = 0 })
  with
  | Counter c -> c
  | _ -> mismatch name

let timer name =
  match
    find_or_create name (fun () ->
        Timer { t_name = name; calls = 0; seconds = 0.0; depth = 0 })
  with
  | Timer t -> t
  | _ -> mismatch name

let cache name =
  match
    find_or_create name (fun () -> Cache { k_name = name; hits = 0; misses = 0 })
  with
  | Cache c -> c
  | _ -> mismatch name

let incr ?(by = 1) c = c.count <- c.count + by

let now = Unix.gettimeofday

let with_timer t f =
  t.calls <- t.calls + 1;
  if t.depth > 0 then begin
    (* Recursive entry: count the call but let the outer frame own the
       wall clock, otherwise recursion double-bills. *)
    t.depth <- t.depth + 1;
    Fun.protect ~finally:(fun () -> t.depth <- t.depth - 1) f
  end
  else begin
    t.depth <- 1;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        t.seconds <- t.seconds +. (now () -. t0);
        t.depth <- t.depth - 1)
      f
  end

let add_time t s =
  t.calls <- t.calls + 1;
  t.seconds <- t.seconds +. s

let hit c = c.hits <- c.hits + 1
let miss c = c.misses <- c.misses + 1

let lookups c = c.hits + c.misses

let hit_rate c =
  let n = lookups c in
  if n = 0 then 0.0 else float_of_int c.hits /. float_of_int n

let reset () =
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> c.count <- 0
      | Timer t ->
          t.calls <- 0;
          t.seconds <- 0.0
      | Cache c ->
          c.hits <- 0;
          c.misses <- 0)
    registry

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type snapshot = {
  counters : (string * int) list;
  timers : (string * (int * float)) list;  (** calls, seconds *)
  caches : (string * (int * int)) list;  (** hits, misses *)
}

let snapshot () =
  let names = List.rev !order in
  let pick f = List.filter_map f names in
  {
    counters =
      pick (fun n ->
          match Hashtbl.find_opt registry n with
          | Some (Counter c) -> Some (n, c.count)
          | _ -> None);
    timers =
      pick (fun n ->
          match Hashtbl.find_opt registry n with
          | Some (Timer t) -> Some (n, (t.calls, t.seconds))
          | _ -> None);
    caches =
      pick (fun n ->
          match Hashtbl.find_opt registry n with
          | Some (Cache c) -> Some (n, (c.hits, c.misses))
          | _ -> None);
  }

(* Fleet-wide aggregation: the batch driver's workers each report a
   per-job snapshot over the result pipe; the parent folds them into
   one registry-shaped view by adding the numbers. *)
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
  List.iter
    (fun (n, v) ->
      let c = counter n in
      c.count <- c.count + v)
    s.counters;
  List.iter
    (fun (n, (calls, secs)) ->
      let t = timer n in
      t.calls <- t.calls + calls;
      t.seconds <- t.seconds +. secs)
    s.timers;
  List.iter
    (fun (n, (hits, misses)) ->
      let c = cache n in
      c.hits <- c.hits + hits;
      c.misses <- c.misses + misses)
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
