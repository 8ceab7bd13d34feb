(* The dsmloc executable end to end: the exit-code contract of its
   header, for clean, degraded, stale, vacuous and rejected runs. *)

let dsmloc = "../bin/dsmloc.exe"

(* Runs dsmloc on [args] with stdout discarded: its exit code, its
   stderr and the wall seconds it took.  A run still going after
   [limit] seconds is killed and fails the test. *)
let run ?(limit = 60.) args =
  let err = Filename.temp_file "dsmloc" ".err" in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process dsmloc
      (Array.of_list (dsmloc :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_err;
  Unix.close fd_out;
  let cmd = String.concat " " args in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 > limit ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "dsmloc %s: still running after %.0f s" cmd limit
    | 0, _ ->
        Unix.sleepf 0.005;
        wait ()
    | _, Unix.WEXITED code -> code
    | _, _ -> Alcotest.failf "dsmloc %s: killed by a signal" cmd
  in
  let code = wait () in
  let seconds = Unix.gettimeofday () -. t0 in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, stderr, seconds)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let exits ?stderr code args () =
  let got, err, _ = run args in
  Alcotest.(check int) (String.concat " " args) code got;
  Option.iter
    (fun sub ->
      if not (contains err sub) then
        Alcotest.failf "dsmloc %s: %S not on stderr" (String.concat " " args)
          sub)
    stderr

(* A malformed or out-of-range argument is rejected by the command line
   parser (exit 124) before any analysis starts. *)
let rejected args () =
  let code, _, seconds = run ~limit:10. args in
  Alcotest.(check int) (String.concat " " args) 124 code;
  if seconds > 1. then
    Alcotest.failf "dsmloc %s: rejected after %.2f s" (String.concat " " args)
      seconds

let case name f = Alcotest.test_case name `Quick f

(* Run [f] on a temporary file holding [source], removed afterwards. *)
let with_program source f () =
  let path = Filename.temp_file "dsmloc" ".dsm" in
  Out_channel.with_open_text path (fun oc -> output_string oc source);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A program whose own parameter range overflows its array's size: no
   --env to refuse, so the run degrades (LCG-FAIL) and cannot replay. *)
let overflowing_program =
  with_program
    "program huge\n\
     param N = 1152921504606846975..1152921504606846975\n\
     real A(N^2)\n\n\
     phase P:\n\
    \  doall i = 0, 3\n\
    \    A(N*N - i) = A(i) work 1\n\
    \  end\n"

(* A subscript whose constant fold divides by zero: a parse error. *)
let dividing_program =
  with_program
    "program x\n\
     param N = 4..8\n\
     real U(N)\n\
     phase P:\n\
     doall c = 0, N - 1\n\
    \  U(c / (N - N)) = U(c)\n\
     end\n"

(* A subscript naming an undeclared variable: with or without
   --autopar the lint pass reports it and the run cannot replay. *)
let unbound_program =
  with_program
    "program unbound\n\
     param N = 4..16\n\
     real A(N)\n\n\
     phase P:\n\
    \  do i = 0, N-1\n\
    \    A(i + M) = A(i)\n\
    \  end\n"

let no_internal_error args () =
  let code, err, _ = run args in
  Alcotest.(check int) (String.concat " " args) 1 code;
  List.iter
    (fun (present, sub) ->
      if contains err sub <> present then
        Alcotest.failf "dsmloc %s: stderr %s %S:\n%s" (String.concat " " args)
          (if present then "lacks" else "has") sub err)
    [ (true, "LINT-UNBOUND-PARAM"); (false, "internal error") ]

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        [
          case "clean analyze exits 0" (exits 0 [ "analyze"; "jacobi2d" ]);
          case "lcg with a failed LCG stage exits 2"
            (exits ~stderr:"LCG-FAIL" 2 [ "lcg"; "matmul"; "--symbolic-only" ]);
          case "file with an overflowing --env exits 124"
            (exits ~stderr:"out of range" 124
               [
                 "file"; "../examples/programs/jacobi2d.dsm"; "--env";
                 "N=4611686018427387903";
               ]);
          case "file with an overflowing range fails its LCG stage"
            (overflowing_program (fun path ->
                 exits ~stderr:"LCG-FAIL" 1 [ "file"; path ] ()));
          case "file dividing by a zero constant exits 1"
            (dividing_program (fun path ->
                 exits ~stderr:"division by zero" 1 [ "file"; path ] ()));
          case "run past the read-check cap says so"
            (exits ~stderr:"executed reads unchecked" 0
               [ "run"; "jacobi2d"; "--domains"; "2"; "--size"; "10" ]);
          case "file with an unbound variable exits 1"
            (unbound_program (fun path -> no_internal_error [ "file"; path ] ()));
          case "file --autopar with an unbound variable exits 1"
            (unbound_program (fun path ->
                 no_internal_error [ "file"; path; "--autopar" ] ()));
          case "vacuous validate exits 4"
            (exits ~stderr:"checked nothing" 4
               [ "validate"; "jacobi2d"; "--size"; "0"; "--procs"; "4" ]);
          case "vacuous run --validate exits 4"
            (exits ~stderr:"checked nothing" 4
               [ "run"; "jacobi2d"; "--domains"; "2"; "--size"; "0"; "--validate" ]);
          case "unknown code exits 1" (exits 1 [ "analyze"; "no-such-kernel" ]);
          case "malformed --env binding exits 1"
            (exits ~stderr:"bad binding" 1
               [ "file"; "../examples/programs/jacobi2d.dsm"; "--env"; "N=abc" ]);
        ] );
      ( "rejected arguments",
        List.map
          (fun args -> case (String.concat " " args) (rejected args))
          [
            [ "lcg"; "jacobi2d"; "--procs"; "0" ];
            [ "run"; "jacobi2d"; "--domains"; "0" ];
            [ "fuzz"; "--count=-3" ];
            [ "analyze"; "jacobi2d"; "--procs=-3" ];
            [ "simulate"; "tfft2"; "--procs=-1" ];
            [ "run"; "jacobi2d"; "--domains=-2" ];
            [ "run"; "jacobi2d"; "--domains"; "2"; "--rounds=-1" ];
            [ "analyze"; "jacobi2d"; "--size=-1" ];
            [ "analyze"; "jacobi2d"; "--procs"; "abc" ];
            (* sizes past the code's range: an extent 2^size or an
               array size that overflows *)
            [ "analyze"; "jacobi2d"; "--size"; "70" ];
            [ "lcg"; "jacobi2d"; "--size"; "62" ];
            [ "lcg"; "tfft2"; "--size"; "62" ];
            [ "dot"; "tfft2"; "--size"; "62" ];
            [ "analyze"; "tfft2"; "--size"; "31" ];
            [ "batch"; "jacobi2d"; "--size"; "62" ];
            (* an --env under which a declared array's size (N*N)
               overflows *)
            [ "file"; "--env"; "N=4294967296"; "../examples/programs/jacobi2d.dsm" ];
            [ "file"; "--env"; "N=3037000500"; "../examples/programs/jacobi2d.dsm" ];
            (* more job domains than OCaml keeps alive; refused before
               any is spawned *)
            [ "batch"; "--all"; "--jobs"; "128" ];
            [ "run"; "jacobi2d"; "--domains"; "129" ];
            [ "fuzz"; "--count"; "1"; "--jobs"; "128" ];
            (* a removed option is an unknown one *)
            [ "analyze"; "tfft2"; "--enum-only" ];
            [ "fuzz"; "--count"; "1"; "--deep-every"; "5" ];
            [ "fuzz"; "--count"; "1"; "--determinism-sample"; "2" ];
            [ "fuzz"; "--count"; "1"; "--no-shrink" ];
          ] );
    ]
