open Symbolic

type config = {
  count : int;
  seed : int;
  jobs : int;
  wall_cap : float;
  out_dir : string;
  skew : int;
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
(* The job side: program [index] of the campaign through the battery. *)

type fz_job = { fz_index : int; fz_seed : int; fz_deep : bool }

let profile_of j = if j.fz_deep then Gen.deep else Gen.default
let program_of j = Gen.program (profile_of j) ~seed:j.fz_seed ~index:j.fz_index
let fz_worker j = Differ.battery (program_of j)

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
  let prog = program_of j in
  let source = Frontend.Unparse.to_string prog in
  let c = Differ.find check in
  let keep p = match c.run p with Differ.Fail _ -> true | _ -> false in
  if not (keep prog) then
    (* A job-only failure: keep the full program on record but flag
       that the calling domain could not reproduce it. *)
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
    let small = Shrink.run ~keep prog in
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
  end

let chunks_of n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: xs ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 xs
        else go acc (x :: cur) (k + 1) xs
  in
  go [] [] 0 l

(* Each battery can run the executor on [Differ.h] domains, its own
   included, so at most this many run at once. *)
let max_jobs = (Core.Jobs.max_domains - 1) / Differ.h

(* Every [deep_every]-th program after the first uses the deep profile;
   the first [determinism_sample] finished programs are re-run on a
   single worker. *)
let deep_every = 25
let determinism_sample = 8

let run ?(log = fun _ -> ()) cfg =
  (* The skew is set on the calling domain for the whole campaign: job
     domains inherit it, and in-process reproduction runs under it. *)
  let skew = Lattice.test_card_skew () in
  let saved_skew = !skew in
  Fun.protect ~finally:(fun () -> skew := saved_skew) @@ fun () ->
  skew := cfg.skew;
  let workers = min cfg.jobs max_jobs in
  let t0 = Unix.gettimeofday () in
  let jobs =
    List.init cfg.count (fun i ->
        {
          fz_index = i;
          fz_seed = cfg.seed;
          fz_deep = i > 0 && i mod deep_every = 0;
        })
  in
  let chunk_size = max (4 * workers) 32 in
  let capped = ref false in
  let ran = ref 0 in
  let completed = ref [] (* (job, outcome) in submission order, reversed *) in
  List.iter
    (fun chunk ->
      if (not !capped)
         && (cfg.wall_cap <= 0. || Unix.gettimeofday () -. t0 < cfg.wall_cap)
      then begin
        let outcomes, _metrics = Core.Jobs.map ~workers ~f:fz_worker chunk in
        List.iter2 (fun j o -> completed := (j, o) :: !completed) chunk outcomes;
        List.iter (function Core.Jobs.Done _ -> incr ran | _ -> ()) outcomes;
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
      | Core.Jobs.Done { value; _ } -> (
          match
            List.find_map
              (function check, Differ.Fail detail -> Some (check, detail) | _ -> None)
              value
          with
          | Some (check, detail) ->
              log
                (Printf.sprintf "finding: index %d fails %s: %s" j.fz_index
                   check (first_line detail));
              findings := materialize ~log cfg j check detail :: !findings
          | None -> ())
      | Core.Jobs.Failed reason ->
          findings :=
            {
              f_index = j.fz_index;
              f_profile = (if j.fz_deep then "deep" else "default");
              f_check = "job-failed";
              f_detail = "battery raised: " ^ reason;
              f_source = Frontend.Unparse.to_string (program_of j);
              f_shrunk = None;
              f_repro = None;
            }
            :: !findings)
    completed;
  (* 1-vs-N worker determinism: the verdict vectors of a sample prefix
     must be identical when recomputed on a single worker. *)
  let det_n = min determinism_sample (List.length completed) in
  if det_n > 0 && workers > 1 then begin
    let sample = List.filteri (fun i _ -> i < det_n) completed in
    let solo, _ = Core.Jobs.map ~workers:1 ~f:fz_worker (List.map fst sample) in
    List.iter2
      (fun (j, first) second ->
        match (first, second) with
        | Core.Jobs.Done a, Core.Jobs.Done b ->
            if a.value <> b.value then
              findings :=
                {
                  f_index = j.fz_index;
                  f_profile = "campaign";
                  f_check = "determinism";
                  f_detail =
                    Printf.sprintf
                      "index %d: verdicts differ between %d workers and 1 worker"
                      j.fz_index workers;
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
