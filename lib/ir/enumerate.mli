(** Concrete access enumeration: the ground-truth oracle, and the one
    definition of addressing.  {!compile} turns a normalized phase into
    closures over a loop slot file; {!iter} walks them and
    [Codegen.Compile] executes them, so the oracle and the generated
    code cannot disagree on an address. *)

open Symbolic
open Types

(** A compiled bound or subscript: constant, affine in the loop slots
    [c0 + sum c_i * slot_i] (overflow-checked), or an opaque fallback
    that runs the {!Expr.compile_int} closure per evaluation. *)
type shape = Const of int | Affine of int * (int * int) list | Opaque

type site = {
  array : string;
  access : access;
  addr : int array -> int;
}

type node =
  | Stmt of { refs : site list;  (** textual order *) work : int }
  | Nest of {
      lo : int array -> int;
      hi : int array -> int;
      slot : int;  (** the loop variable's slot *)
      parallel : bool;
      body : node list;
    }

type nest = {
  root : node;
  nslots : int;
  shapes : shape list;  (** every compiled expression, in compile order *)
  unsupported : string option;
      (** the first unbound parameter, undeclared array, unevaluable
          extent or rank mismatch, in compile order *)
}

val compile : program -> Env.t -> phase -> nest
(** Addresses are column-major; the trailing extent never multiplies.
    A closure that reaches an {!nest.unsupported} construct raises what
    evaluation would ([Env.Unbound], [Expr.Non_integral], [Not_found],
    [Invalid_argument "rank mismatch"]) when first called. *)

val iter :
  ?only:string * int list ->
  program ->
  Env.t ->
  phase ->
  f:(par:int option -> array:string -> addr:int -> access -> work:int -> unit) ->
  unit
(** Every event in execution order.  [par] is the current normalized
    parallel-loop iteration ([None] outside it); [work] is the
    statement's cost, reported on its first reference only.  Errors
    surface lazily: an unbound parameter inside a zero-trip loop never
    raises.

    [only = (array, pars)], [pars] ascending, restricts the walk: the
    parallel loop runs just its values in [pars], and only [array]'s
    events inside it are reported - the events of the full walk with
    [par] in [pars] and that array, in the same order.  Errors are
    raised only on the restricted path. *)

val addresses :
  program -> Env.t -> phase -> array:string -> (int * access) list
(** All events for one array, execution order (with duplicates). *)

val address_set : program -> Env.t -> phase -> array:string -> (int, unit) Hashtbl.t

val iteration_addresses :
  program -> Env.t -> phase -> array:string -> par:int -> (int * access) list
(** Events of one parallel iteration only: the [only] walk. *)
