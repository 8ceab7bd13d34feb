open Symbolic
open Ir.Types

type entry = {
  name : string;
  program : program;
  env_of_size : int -> Env.t;
  default_size : int;
}

let pow2 s = if s < Sys.int_size - 1 then 1 lsl s else 0

let all =
  [
    {
      name = "tfft2";
      program = Tfft2.program;
      env_of_size = (fun s -> Tfft2.env ~p:s ~q:s);
      default_size = 5;
    };
    {
      name = "jacobi2d";
      program = Jacobi.program;
      env_of_size = (fun s -> Jacobi.env ~n:(pow2 s));
      default_size = 5;
    };
    {
      name = "swim";
      program = Swim.program;
      env_of_size = (fun s -> Swim.env ~n:(pow2 s));
      default_size = 5;
    };
    {
      name = "tomcatv";
      program = Tomcatv.program;
      env_of_size = (fun s -> Tomcatv.env ~n:(pow2 s));
      default_size = 5;
    };
    {
      name = "matmul";
      program = Matmul.program;
      env_of_size = (fun s -> Matmul.env ~n:(pow2 s));
      default_size = 4;
    };
    {
      name = "adi";
      program = Adi.program;
      env_of_size = (fun s -> Adi.env ~n:(pow2 s));
      default_size = 5;
    };
    {
      name = "redblack";
      program = Redblack.program;
      env_of_size = (fun s -> Redblack.env ~n:(pow2 s));
      default_size = 6;
    };
    {
      name = "trisolve";
      program = Trisolve.program;
      env_of_size = (fun s -> Trisolve.env ~n:(pow2 s));
      default_size = 4;
    };
    {
      name = "mgrid";
      program = Mgrid.program;
      env_of_size = (fun s -> Mgrid.env ~n:(pow2 s));
      default_size = 7;
    };
  ]

let find name = List.find (fun e -> String.equal e.name name) all
let names = List.map (fun e -> e.name) all
