(* Golden counts of the real executor: for every registry kernel at its
   default size on 2 and 4 domains, what `dsmloc run` counts (scheduled
   messages and words, direct gets, puts and local accesses, reads
   checked, final-epoch content cells) and the dataflow validator's
   verdict.  None of these depends on timing.

   `dune runtest` diffs this program's output against
   run_counts.expected; after an intentional change, regenerate with
   `dune runtest` followed by `dune promote`. *)

open Symbolic

let pipeline (e : Codes.Registry.entry) ~h =
  Probe.with_seed 701 (fun () ->
      Symbolic.Probe.clear ();
      Core.Pipeline.run e.program ~env:(e.env_of_size e.default_size) ~h)

let verdict = function
  | Exec.Validate.Pass -> "pass"
  | Stale -> "stale"
  | Checked_nothing -> "checked nothing"

let () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun h ->
          let t = pipeline e ~h in
          let rounds = if e.program.repeats then 2 else 1 in
          let r = Exec.Runner.execute ~rounds t.lcg t.plan in
          let v = Exec.Validate.run ~rounds t.lcg t.plan in
          Printf.printf "== %s H=%d rounds=%d\n" e.name h rounds;
          Printf.printf "messages %d/%d words %d/%d\n" r.sched_messages
            r.expected_messages r.sched_words r.expected_words;
          Printf.printf "direct: %d gets, %d puts, %d local\n" r.remote_gets
            r.remote_puts r.local_accesses;
          Printf.printf "reads checked %d, stale %d\n" r.reads_checked r.stale;
          Printf.printf "contents: %d cells, %d mismatches\n" r.content_cells
            r.content_mismatches;
          Printf.printf "errors: %d\n" (List.length r.errors);
          Printf.printf "validate: reads %d, stale %d, %s\n" v.reads v.stale
            (verdict (Exec.Validate.verdict v)))
        [ 2; 4 ])
    Codes.Registry.all
