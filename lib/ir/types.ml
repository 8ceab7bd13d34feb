open Symbolic

type access = Read | Write

type array_ref = { array : string; index : Expr.t list; access : access }

type stmt = Assign of assign | Loop of loop

and assign = { refs : array_ref list; work : int }

and loop = {
  var : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  parallel : bool;
  body : stmt list;
}

type array_decl = { name : string; dims : Expr.t list }
type phase = { phase_name : string; nest : loop }

type program = {
  prog_name : string;
  params : Assume.t;
  arrays : array_decl list;
  phases : phase list;
  repeats : bool;
}

let equal_access a b = match (a, b) with
  | Read, Read | Write, Write -> true
  | Read, Write | Write, Read -> false

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "R"
  | Write -> Format.pp_print_string ppf "W"

let pp_ref ppf r =
  Format.fprintf ppf "%s(%a):%a" r.array
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Expr.pp)
    r.index pp_access r.access

let rec pp_stmt ppf = function
  | Assign a ->
      Format.fprintf ppf "@[<h>{%a}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_ref)
        a.refs
  | Loop l ->
      Format.fprintf ppf "@[<v 2>%s %s = %a to %a%s%s@,%a@]"
        (if l.parallel then "doall" else "do")
        l.var Expr.pp l.lo Expr.pp l.hi
        (match Expr.to_int l.step with
        | Some 1 -> ""
        | _ -> Format.asprintf " step %a" Expr.pp l.step)
        "" (Format.pp_print_list pp_stmt) l.body

let pp_phase ppf ph =
  Format.fprintf ppf "@[<v 2>phase %s:@,%a@]" ph.phase_name pp_stmt (Loop ph.nest)

let pp_program ppf p =
  Format.fprintf ppf "@[<v>program %s%s@,params: %a@,arrays: %a@,%a@]"
    p.prog_name
    (if p.repeats then " (repeating)" else "")
    Assume.pp p.params
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf a ->
         Format.fprintf ppf "%s(%a)" a.name
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
              Expr.pp)
           a.dims))
    p.arrays
    (Format.pp_print_list pp_phase)
    p.phases

let array_decl p name = List.find (fun (a : array_decl) -> String.equal a.name name) p.arrays

let rec stmt_refs = function
  | Assign a -> a.refs
  | Loop l -> List.concat_map stmt_refs l.body

let phase_arrays ph =
  stmt_refs (Loop ph.nest)
  |> List.map (fun r -> r.array)
  |> List.sort_uniq String.compare
