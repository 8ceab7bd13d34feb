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

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        [
          case "clean analyze exits 0" (exits 0 [ "analyze"; "jacobi2d" ]);
          case "lcg with a failed LCG stage exits 2"
            (exits ~stderr:"LCG-FAIL" 2 [ "lcg"; "matmul"; "--symbolic-only" ]);
          case "file with an overflowing --env fails its LCG stage"
            (exits ~stderr:"LCG-FAIL" 1
               [
                 "file"; "../examples/programs/jacobi.dsm"; "--env";
                 "N=4611686018427387903";
               ]);
          case "unrecovered faulted validation exits 3"
            (exits 3
               [
                 "validate"; "jacobi2d"; "--size"; "4"; "--procs"; "4";
                 "--inject-faults"; "42:0.5";
               ]);
          case "vacuous run --validate exits 4"
            (exits ~stderr:"checked nothing" 4
               [ "run"; "jacobi2d"; "--domains"; "2"; "--size"; "0"; "--validate" ]);
          case "unknown code exits 1" (exits 1 [ "analyze"; "no-such-kernel" ]);
          case "malformed --env binding exits 1"
            (exits ~stderr:"bad binding" 1
               [ "file"; "../examples/programs/jacobi.dsm"; "--env"; "N=abc" ]);
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
          ] );
    ]
