type severity = Info | Warning | Error

type stage =
  | Frontend
  | Lint
  | Autopar
  | Descriptors
  | Lcg
  | Model
  | Solve
  | Plan
  | Comm
  | Exec
  | Validation
  | Pool

type t = {
  severity : severity;
  stage : stage;
  where : string option;
  code : string;
  message : string;
}

exception Too_many_errors of int

type collector = {
  mutable items : t list;  (** reverse order *)
  mutable n_errors : int;
  max_errors : int option;
}

let collector ?max_errors () = { items = []; n_errors = 0; max_errors }

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let stage_to_string = function
  | Frontend -> "frontend"
  | Lint -> "lint"
  | Autopar -> "autopar"
  | Descriptors -> "descriptors"
  | Lcg -> "lcg"
  | Model -> "model"
  | Solve -> "solve"
  | Plan -> "plan"
  | Comm -> "comm"
  | Exec -> "exec"
  | Validation -> "validation"
  | Pool -> "pool"

let add c ~severity ~stage ?where ~code message =
  (* the diagnostic that would exceed the cap is not recorded *)
  (if severity = Error then
     match c.max_errors with
     | Some cap when c.n_errors >= cap -> raise (Too_many_errors cap)
     | _ -> ());
  c.items <- { severity; stage; where; code; message } :: c.items;
  if severity = Error then c.n_errors <- c.n_errors + 1

let addf c ~severity ~stage ?where ~code fmt =
  Printf.ksprintf (add c ~severity ~stage ?where ~code) fmt

let where_to_string d = Option.value d.where ~default:"-"

let to_list c = List.rev c.items
let count c = List.length c.items
let errors c = c.n_errors
let has_errors c = c.n_errors > 0

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let max_severity c =
  List.fold_left
    (fun acc d ->
      match acc with
      | Some s when severity_rank s >= severity_rank d.severity -> acc
      | _ -> Some d.severity)
    None c.items

let pp ppf d =
  match d.where with
  | None ->
      Format.fprintf ppf "[%s] %s %s: %s"
        (severity_to_string d.severity)
        (stage_to_string d.stage) d.code d.message
  | Some w ->
      Format.fprintf ppf "[%s] %s %s at %s: %s"
        (severity_to_string d.severity)
        (stage_to_string d.stage) d.code w d.message

let pp_table ppf = function
  | [] -> ()
  | ds ->
      let w_sev, w_stage, w_code, w_where =
        List.fold_left
          (fun (a, b, c, w) d ->
            ( max a (String.length (severity_to_string d.severity)),
              max b (String.length (stage_to_string d.stage)),
              max c (String.length d.code),
              max w (String.length (where_to_string d)) ))
          (0, 0, 0, 0) ds
      in
      Format.fprintf ppf "@[<v>";
      List.iter
        (fun d ->
          Format.fprintf ppf "%-*s  %-*s  %-*s  %-*s  %s@," w_sev
            (severity_to_string d.severity)
            w_stage (stage_to_string d.stage) w_code d.code w_where
            (where_to_string d) d.message)
        ds;
      Format.fprintf ppf "@]"
