open Symbolic

type config = {
  count : int;
  seed : int;
  jobs : int;
  deep_every : int;
  determinism_sample : int;
  wall_cap : float;
  out_dir : string;
  skew : int;
  shrink : bool;
}

type finding = {
  f_index : int;
  f_profile : string;
  f_check : string;
  f_detail : string;
  f_source : string;
  f_shrunk : string option;
  f_repro : string option;
}

type stats = {
  s_ran : int;
  s_findings : finding list;
  s_wall_capped : bool;
}

(* ------------------------------------------------------------------ *)
(* The worker side.  Jobs and results cross the fork boundary by
   Marshal, so both are plain records of ints/strings/variants. *)

type fz_job = { fz_index : int; fz_seed : int; fz_deep : bool; fz_skew : int }

type wire_verdict = W_pass | W_skip of string | W_fail of string

type fz_result = { fr_verdicts : (string * wire_verdict) list }

let profile_of j = if j.fz_deep then Gen.deep else Gen.default

let fz_worker ~attempt:_ (j : fz_job) =
  (* The pool resets metrics / artifact stores / intern state per job;
     the fault-injection skew is ours to (re)install. *)
  Lattice.test_card_skew := j.fz_skew;
  let prog = Gen.program (profile_of j) ~seed:j.fz_seed ~index:j.fz_index in
  {
    fr_verdicts =
      List.map
        (fun (name, v) ->
          ( name,
            match v with
            | Differ.Pass -> W_pass
            | Differ.Skip s -> W_skip s
            | Differ.Fail d -> W_fail d ))
        (Differ.battery prog);
  }

(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go dir

let first_line s =
  let line = match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  if String.length line > 160 then String.sub line 0 160 ^ "..." else line

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

(* Shrink (under the campaign's skew) and persist one finding. *)
let materialize ~log cfg (j : fz_job) check detail =
  let profile = if j.fz_deep then "deep" else "default" in
  let prog = Gen.program (profile_of j) ~seed:j.fz_seed ~index:j.fz_index in
  let source = Frontend.Unparse.to_string prog in
  let saved = !Lattice.test_card_skew in
  Fun.protect
    ~finally:(fun () -> Lattice.test_card_skew := saved)
    (fun () ->
      Lattice.test_card_skew := cfg.skew;
      let c = Differ.find check in
      let keep p = match c.run p with Differ.Fail _ -> true | _ -> false in
      if not (keep prog) then
        (* A worker-only failure: keep the full program on record but
           flag that the parent could not reproduce it in-process. *)
        {
          f_index = j.fz_index;
          f_profile = profile;
          f_check = check;
          f_detail = detail ^ " (not reproducible in-process)";
          f_source = source;
          f_shrunk = None;
          f_repro = None;
        }
      else begin
        let small = if cfg.shrink then Shrink.run ~keep prog else prog in
        let shrunk = Frontend.Unparse.to_string small in
        let shrunk_detail =
          match c.run small with Differ.Fail d -> d | _ -> detail
        in
        mkdir_p cfg.out_dir;
        let stem = Printf.sprintf "fuzz_%s_s%d_%d" check j.fz_seed j.fz_index in
        let path = Filename.concat cfg.out_dir (stem ^ ".dsm") in
        write_file path
          (Printf.sprintf "# %s differential failure (seed %d, index %d)\n# %s\n%s"
             check j.fz_seed j.fz_index (first_line shrunk_detail) shrunk);
        write_file (path ^ ".golden")
          (Printf.sprintf "check: %s\nprofile: %s\nseed: %d\nindex: %d\ndetail: %s\n"
             check profile j.fz_seed j.fz_index shrunk_detail);
        log (Printf.sprintf "wrote %s" path);
        {
          f_index = j.fz_index;
          f_profile = profile;
          f_check = check;
          f_detail = shrunk_detail;
          f_source = source;
          f_shrunk = Some shrunk;
          f_repro = Some path;
        }
      end)

let chunks_of n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: xs ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 xs
        else go acc (x :: cur) (k + 1) xs
  in
  go [] [] 0 l

let run ?(log = fun _ -> ()) cfg =
  let t0 = Unix.gettimeofday () in
  let jobs =
    List.init cfg.count (fun i ->
        {
          fz_index = i;
          fz_seed = cfg.seed;
          fz_deep = cfg.deep_every > 0 && i > 0 && i mod cfg.deep_every = 0;
          fz_skew = cfg.skew;
        })
  in
  let chunk_size = max (4 * cfg.jobs) 32 in
  let capped = ref false in
  let ran = ref 0 in
  let completed = ref [] (* (job, outcome) in submission order, reversed *) in
  List.iter
    (fun chunk ->
      if (not !capped)
         && (cfg.wall_cap <= 0. || Unix.gettimeofday () -. t0 < cfg.wall_cap)
      then begin
        let outcomes, _metrics =
          Core.Pool.map ~workers:cfg.jobs ~f:fz_worker chunk
        in
        List.iter2 (fun j o -> completed := (j, o) :: !completed) chunk outcomes;
        List.iter (function Core.Pool.Done _ -> incr ran | _ -> ()) outcomes;
        log
          (Printf.sprintf "ran %d/%d programs (%.1fs)" !ran cfg.count
             (Unix.gettimeofday () -. t0))
      end
      else capped := true)
    (chunks_of chunk_size jobs);
  let completed = List.rev !completed in
  if !capped then
    log
      (Printf.sprintf "wall cap %.0fs reached after %d/%d programs" cfg.wall_cap
         !ran cfg.count);
  (* Differential findings, in index order: the first failing check of
     every failing battery, reproduced and shrunk in-process. *)
  let findings = ref [] in
  List.iter
    (fun (j, outcome) ->
      match outcome with
      | Core.Pool.Done d -> (
          let (r : fz_result) = d.value in
          match
            List.find_opt
              (fun (_, v) -> match v with W_fail _ -> true | _ -> false)
              r.fr_verdicts
          with
          | Some (check, W_fail detail) ->
              log
                (Printf.sprintf "finding: index %d fails %s: %s" j.fz_index
                   check (first_line detail));
              findings := materialize ~log cfg j check detail :: !findings
          | _ -> ())
      | Core.Pool.Failed { attempts; reasons } ->
          findings :=
            {
              f_index = j.fz_index;
              f_profile = (if j.fz_deep then "deep" else "default");
              f_check = "worker-crash";
              f_detail =
                Printf.sprintf "battery crashed after %d attempts: %s" attempts
                  (String.concat "; " reasons);
              f_source =
                Frontend.Unparse.to_string
                  (Gen.program (profile_of j) ~seed:j.fz_seed ~index:j.fz_index);
              f_shrunk = None;
              f_repro = None;
            }
            :: !findings)
    completed;
  (* 1-vs-N worker determinism: the verdict vectors of a sample prefix
     must be identical when recomputed on a single worker. *)
  let det_n = min cfg.determinism_sample (List.length completed) in
  if det_n > 0 && cfg.jobs > 1 then begin
    let sample = List.filteri (fun i _ -> i < det_n) completed in
    let solo, _ =
      Core.Pool.map ~workers:1 ~f:fz_worker (List.map fst sample)
    in
    List.iter2
      (fun (j, first) second ->
        match (first, second) with
        | Core.Pool.Done a, Core.Pool.Done b ->
            let (ra : fz_result) = a.value and (rb : fz_result) = b.value in
            if ra.fr_verdicts <> rb.fr_verdicts then
              findings :=
                {
                  f_index = j.fz_index;
                  f_profile = "campaign";
                  f_check = "determinism";
                  f_detail =
                    Printf.sprintf
                      "index %d: verdicts differ between %d workers and 1 worker"
                      j.fz_index cfg.jobs;
                  f_source = "";
                  f_shrunk = None;
                  f_repro = None;
                }
                :: !findings
        | _ -> ())
      sample solo;
    log (Printf.sprintf "determinism: re-ran %d programs on 1 worker" det_n)
  end;
  {
    s_ran = !ran;
    s_findings =
      List.sort (fun a b -> compare a.f_index b.f_index) (List.rev !findings);
    s_wall_capped = !capped;
  }
