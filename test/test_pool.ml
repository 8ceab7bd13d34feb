(* Tests for the forked worker pool behind `dsmloc batch`: submission-
   order determinism whatever the worker count, crash isolation with a
   one-retry budget, fleet metrics merging (counter totals equal the
   sum of the per-job worker snapshots), and the frame reader's
   handling of hostile length prefixes and truncated payloads. *)

module P = Core.Pool
module M = Symbolic.Metrics

(* Worker body shared by the determinism tests: full pipeline on a
   registry kernel, rendered to the same report the CLI prints. *)
let analyze ~attempt:_ name =
  let e = Codes.Registry.find name in
  let env = e.env_of_size (min e.default_size 4) in
  let t = Core.Pipeline.run e.program ~env ~h:4 in
  Format.asprintf "%a" Core.Pipeline.report t

let reports_of outcomes =
  List.map
    (function
      | P.Done d -> (d.value : string)
      | P.Failed { reasons; _ } ->
          Alcotest.failf "job failed: %s" (String.concat "; " reasons))
    outcomes

(* counter total over the per-job snapshots, for cross-checking the
   pool's own merge *)
let summed name outcomes =
  List.fold_left
    (fun acc -> function
      | P.Done d -> (
          acc + try List.assoc name d.metrics.M.counters with Not_found -> 0)
      | P.Failed _ -> acc)
    0 outcomes

let prop_batch_deterministic =
  QCheck.Test.make ~name:"shuffled batch: 1/2/4 workers byte-identical"
    ~count:3
    QCheck.(
      make ~print:(fun l -> String.concat "," l)
        Gen.(
          let* names = shuffle_l Codes.Registry.names in
          let* k = int_range 1 3 in
          return (List.filteri (fun i _ -> i < k) names)))
    (fun names ->
      let runs =
        List.map
          (fun workers ->
            let outcomes, merged = P.map ~workers ~f:analyze names in
            (reports_of outcomes, merged, outcomes))
          [ 1; 2; 4 ]
      in
      let reports1, merged1, outcomes1 = List.hd runs in
      List.iter
        (fun (reports, merged, _) ->
          if reports <> reports1 then
            QCheck.Test.fail_report "reports differ across worker counts";
          if
            List.sort compare merged.M.counters
            <> List.sort compare merged1.M.counters
          then QCheck.Test.fail_report "merged counters differ")
        (List.tl runs);
      (* merged counter totals = sum of the per-job snapshots *)
      List.for_all
        (fun (name, total) -> total = summed name outcomes1)
        merged1.M.counters)

(* ------------------------------------------------------------------ *)
(* Crash isolation and the retry budget *)

let test_crash_retried () =
  (* job 2's first attempt dies by SIGKILL mid-job; the retry on a
     fresh worker succeeds and every other job is untouched *)
  let f ~attempt j =
    if j = 2 && attempt = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    j * j
  in
  let outcomes, _ = P.map ~workers:2 ~f [ 0; 1; 2; 3 ] in
  List.iteri
    (fun j outcome ->
      match outcome with
      | P.Done d ->
          Alcotest.(check int) (Printf.sprintf "job %d value" j) (j * j)
            d.value;
          if j = 2 then begin
            Alcotest.(check int) "crashed job took two attempts" 2 d.attempts;
            Alcotest.(check int) "one lost attempt on record" 1
              (List.length d.lost)
          end
          else Alcotest.(check int) "clean job: one attempt" 1 d.attempts
      | P.Failed _ -> Alcotest.failf "job %d should have been retried" j)
    outcomes

let test_crash_budget_exhausted () =
  (* a job that dies on every attempt is Failed after 1 + retries
     attempts; the rest of the batch still completes *)
  let f ~attempt:_ j =
    if j = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    j + 10
  in
  let outcomes, _ = P.map ~workers:2 ~retries:1 ~f [ 0; 1; 2 ] in
  (match List.nth outcomes 1 with
  | P.Failed { attempts; reasons } ->
      Alcotest.(check int) "two attempts spent" 2 attempts;
      Alcotest.(check int) "a reason per attempt" 2 (List.length reasons)
  | P.Done _ -> Alcotest.fail "always-crashing job cannot succeed");
  List.iter
    (fun j ->
      match List.nth outcomes j with
      | P.Done d -> Alcotest.(check int) "survivor" (j + 10) d.value
      | P.Failed _ -> Alcotest.failf "job %d lost to a sibling crash" j)
    [ 0; 2 ]

let test_exception_isolated () =
  (* an uncaught exception fails the job without killing the worker;
     with retries:0 it is Failed on the spot *)
  let f ~attempt:_ j = if j = 0 then failwith "boom" else j in
  let outcomes, _ = P.map ~workers:1 ~retries:0 ~f [ 0; 1 ] in
  (match List.hd outcomes with
  | P.Failed { attempts; reasons } ->
      Alcotest.(check int) "single attempt" 1 attempts;
      Alcotest.(check bool) "exception text captured" true
        (List.exists
           (fun r ->
             let n = String.length r in
             let rec go k =
               k + 4 <= n && (String.sub r k 4 = "boom" || go (k + 1))
             in
             go 0)
           reasons)
  | P.Done _ -> Alcotest.fail "raising job cannot succeed");
  match List.nth outcomes 1 with
  | P.Done d -> Alcotest.(check int) "same worker finished the rest" 1 d.value
  | P.Failed _ -> Alcotest.fail "healthy job lost"

let test_stream_order () =
  (* the stream callback fires in submission order even though later
     jobs finish first on a wide pool *)
  let f ~attempt:_ j =
    if j = 0 then Unix.sleepf 0.05;
    j
  in
  let seen = ref [] in
  let outcomes, _ =
    P.map ~workers:4
      ~stream:(fun i _ -> seen := i :: !seen)
      ~f [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "stream in submission order" [ 0; 1; 2; 3 ]
    (List.rev !seen);
  Alcotest.(check int) "all outcomes" 4 (List.length outcomes)

let test_empty_and_single () =
  let f ~attempt:_ j = j * 2 in
  let outcomes, merged = P.map ~workers:4 ~f [] in
  Alcotest.(check int) "empty batch" 0 (List.length outcomes);
  Alcotest.(check int) "empty merge" 0 (List.length merged.M.counters);
  let outcomes, _ = P.map ~workers:8 ~f [ 21 ] in
  match outcomes with
  | [ P.Done d ] -> Alcotest.(check int) "single job" 42 d.value
  | _ -> Alcotest.fail "one job, one outcome"

(* Feed [bytes] into a fresh pipe, close the write end, and hand the
   read end to [k]. *)
let with_pipe_of bytes k =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      ignore (Unix.write w bytes 0 (Bytes.length bytes));
      Unix.close w;
      k r)

let recv_string r : [ `Frame of string | `Bad of string | `Eof ] = P.recv r

(* read one frame back through the pool's reader *)
let recv_of_bytes bytes = with_pipe_of bytes recv_string

let header len =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 len;
  b

let test_frame_roundtrip () =
  let payload = Marshal.to_bytes "hello" [] in
  match
    recv_of_bytes
      (Bytes.cat (header (Int64.of_int (Bytes.length payload))) payload)
  with
  | `Frame v -> Alcotest.(check string) "payload back" "hello" v
  | _ -> Alcotest.fail "a well-formed frame must decode"

(* a negative or over-cap prefix is Bad before any payload is read or
   allocated: no Out_of_memory in the parent *)
let test_frame_bad_length () =
  List.iter
    (fun (what, len) ->
      match recv_of_bytes (header len) with
      | `Bad _ -> ()
      | _ -> Alcotest.failf "%s length prefix must be Bad" what)
    [
      ("negative", -1L);
      ("over-cap", Int64.of_int (P.default_frame_cap + 1));
      ("huge", Int64.max_int);
    ]

(* the cap is checked before the payload is touched: an over-cap
   prefix followed by a well-formed frame is Bad, and the reader has
   consumed only the 8-byte prefix, so the next frame still decodes *)
let test_frame_oversized () =
  let payload = Marshal.to_bytes "after" [] in
  let bytes =
    Bytes.concat Bytes.empty
      [
        header (Int64.of_int (P.default_frame_cap + 1));
        header (Int64.of_int (Bytes.length payload));
        payload;
      ]
  in
  with_pipe_of bytes (fun r ->
      (match recv_string r with
      | `Bad _ -> ()
      | _ -> Alcotest.fail "an over-cap prefix must be Bad");
      match recv_string r with
      | `Frame v -> Alcotest.(check string) "next frame intact" "after" v
      | _ -> Alcotest.fail "the payload after a Bad prefix must be unread")

(* a peer that dies mid-frame leaves a truncated frame: Eof, not Bad *)
let test_frame_truncated () =
  (match recv_of_bytes (Bytes.cat (header 100L) (Bytes.make 30 'x')) with
  | `Eof -> ()
  | _ -> Alcotest.fail "a truncated payload must be Eof");
  match recv_of_bytes (Bytes.make 3 '\000') with
  | `Eof -> ()
  | _ -> Alcotest.fail "a truncated header must be Eof"

let () =
  Alcotest.run "pool"
    [
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_batch_deterministic ] );
      ( "crash-isolation",
        [
          Alcotest.test_case "crash retried once" `Quick test_crash_retried;
          Alcotest.test_case "budget exhausted" `Quick
            test_crash_budget_exhausted;
          Alcotest.test_case "exception isolated" `Quick
            test_exception_isolated;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "stream order" `Quick test_stream_order;
          Alcotest.test_case "empty and single" `Quick test_empty_and_single;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "bad length prefix" `Quick test_frame_bad_length;
          Alcotest.test_case "oversized prefix" `Quick test_frame_oversized;
          Alcotest.test_case "truncated payload" `Quick test_frame_truncated;
        ] );
    ]
