open Symbolic
open Ir.Types

let expr = Expr.pp

let pp_list sep pp =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf sep) pp

let pp_ref ppf (r : array_ref) =
  Format.fprintf ppf "%s(%a)" r.array (pp_list ", " expr) r.index

(* Each Assign is one statement: its writes before [=] and its reads
   after it ([0] when there are none), or, when nothing is written, its
   reads as a bare list.  The parser puts a statement's reads before its
   writes, so the trip is exact on the IR's reads-then-writes order. *)
let pp_assign ppf (a : assign) =
  let reads, writes =
    List.partition (fun r -> equal_access r.access Read) a.refs
  in
  (match (writes, reads) with
  | [], _ -> pp_list ", " pp_ref ppf reads
  | _, [] -> Format.fprintf ppf "%a = 0" (pp_list ", " pp_ref) writes
  | _ ->
      Format.fprintf ppf "%a = %a" (pp_list ", " pp_ref) writes
        (pp_list " + " pp_ref) reads);
  if a.work <> 1 then Format.fprintf ppf " work %d" a.work

let rec pp_stmt ppf = function
  | Assign a -> pp_assign ppf a
  | Loop l ->
      Format.fprintf ppf "@[<v 2>%s %s = %a, %a%t@,%a@]@,end"
        (if l.parallel then "doall" else "do")
        l.var expr l.lo expr l.hi
        (fun ppf ->
          match Expr.to_int l.step with
          | Some 1 -> ()
          | _ -> Format.fprintf ppf " step %a" expr l.step)
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt)
        l.body

let program ppf (p : program) =
  Format.fprintf ppf "@[<v>program %s@," p.prog_name;
  List.iter
    (fun (v, d) ->
      match d with
      | Assume.Int_range (lo, hi) ->
          Format.fprintf ppf "param %s = %d..%d@," v lo hi
      | Assume.Pow2_of w -> Format.fprintf ppf "pow2 %s = %s@," v w
      | Assume.Expr_range _ -> ())
    (Assume.to_list p.params);
  List.iter
    (fun (a : array_decl) ->
      Format.fprintf ppf "real %s(%a)@," a.name (pp_list ", " expr) a.dims)
    p.arrays;
  List.iter
    (fun (ph : phase) ->
      Format.fprintf ppf "@,@[<v>phase %s:@,%a@]@," ph.phase_name pp_stmt
        (Loop ph.nest))
    p.phases;
  if p.repeats then Format.fprintf ppf "@,repeat@,";
  Format.fprintf ppf "@]"

let to_string p = Format.asprintf "%a@." program p
