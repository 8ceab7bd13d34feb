open Symbolic
open Ir.Types

type entry = {
  name : string;
  program : program;
  env_of_size : int -> Env.t;
  default_size : int;
}

let pow2 s = if s < Sys.int_size - 1 then 1 lsl s else 0

(* The sources are compiled in, so a parse error is a defect of the
   build, reported when the library is initialized. *)
let parse file source =
  try Frontend.Parse.program source
  with Frontend.Parse.Error { line; message } ->
    failwith (Printf.sprintf "examples/programs/%s.dsm:%d: %s" file line message)

let bind (p : program) binds =
  let derived (x, d) =
    match d with
    | Assume.Pow2_of base -> Option.map (fun v -> (x, pow2 v)) (List.assoc_opt base binds)
    | _ -> None
  in
  Env.of_list (binds @ List.filter_map derived (Assume.to_list p.params))

let entry ?(knob = fun s -> [ ("N", pow2 s) ]) name source default_size =
  let program = parse name source in
  { name; program; env_of_size = (fun s -> bind program (knob s)); default_size }

let all =
  [
    entry "tfft2" Sources.tfft2 5 ~knob:(fun s -> [ ("p", s); ("q", s) ]);
    entry "jacobi2d" Sources.jacobi2d 5;
    entry "swim" Sources.swim 5;
    entry "tomcatv" Sources.tomcatv 5;
    entry "matmul" Sources.matmul 4;
    entry "adi" Sources.adi 5;
    entry "redblack" Sources.redblack 6;
    entry "trisolve" Sources.trisolve 4;
    entry "mgrid" Sources.mgrid 7;
  ]

let fig1 = parse "tfft2_f3" Sources.tfft2_f3
let find name = List.find (fun e -> String.equal e.name name) all
let names = List.map (fun e -> e.name) all
