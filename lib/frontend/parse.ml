open Symbolic
open Ir

exception Error of { line : int; message : string }

type state = {
  lx : Lexer.t;
  mutable arrays : Types.array_decl list;  (** declared so far *)
  mutable subs : Inline.subroutine list;
  mutable depth : int;  (** expression nesting, bounded by [max_depth] *)
}

let fail st message = raise (Error { line = Lexer.line st.lx; message })

(* Hostile sources (a megabyte of '(' or of '^') must fail with a
   positioned error, not blow the stack: expression nesting is bounded
   here, and [program] additionally converts a [Stack_overflow] from
   any other unbounded recursion (e.g. pathological statement counts)
   into a positioned parse error. *)
let max_depth = 200

let deeper st f =
  if st.depth >= max_depth then fail st "expression nested too deeply";
  st.depth <- st.depth + 1;
  let v = f () in
  st.depth <- st.depth - 1;
  v

let expect st tok =
  let got = Lexer.next st.lx in
  if got <> tok then
    fail st
      (Format.asprintf "expected %a, got %a" Lexer.pp_token tok Lexer.pp_token
         got)

let expect_ident st =
  match Lexer.next st.lx with
  | Lexer.IDENT s -> s
  | got -> fail st (Format.asprintf "expected identifier, got %a" Lexer.pp_token got)

let expect_int st =
  match Lexer.next st.lx with
  | Lexer.INT n -> n
  | Lexer.MINUS -> (
      match Lexer.next st.lx with
      | Lexer.INT n -> -n
      | got -> fail st (Format.asprintf "expected integer, got %a" Lexer.pp_token got))
  | got -> fail st (Format.asprintf "expected integer, got %a" Lexer.pp_token got)

let skip_newlines st =
  while Lexer.peek st.lx = Lexer.NEWLINE do
    ignore (Lexer.next st.lx)
  done

let newline st =
  match Lexer.next st.lx with
  | Lexer.NEWLINE | Lexer.EOF -> skip_newlines st
  | got -> fail st (Format.asprintf "expected end of line, got %a" Lexer.pp_token got)

let is_array st name =
  List.exists (fun (a : Types.array_decl) -> String.equal a.name name) st.arrays

(* ------------------------------------------------------------------ *)
(* Expressions.  Array references found inside an expression are
   collected as reads; the arithmetic value of a reference is opaque
   (the analysis only needs the reference set), so an expression
   containing reads has no usable symbolic value - using one inside a
   subscript or bound is an error. *)

type value = { expr : Expr.t option; reads : Types.array_ref list }

let pure e = { expr = Some e; reads = [] }

(* Constant folding runs on hostile input too: a constant division by
   zero or an overflowing constant is a positioned error. *)
let fold st f =
  try f () with
  | Qnum.Division_by_zero -> fail st "division by zero in a constant expression"
  | Qnum.Overflow -> fail st "integer overflow in a constant expression"

let lift2 st op a b =
  match (a.expr, b.expr) with
  | Some x, Some y ->
      { expr = Some (fold st (fun () -> op x y)); reads = a.reads @ b.reads }
  | _ ->
      if a.reads = [] && b.reads = [] then fail st "malformed expression"
      else { expr = None; reads = a.reads @ b.reads }

let rec parse_expr st : value = parse_add st

and parse_add st =
  let rec go acc =
    match Lexer.peek st.lx with
    | Lexer.PLUS ->
        ignore (Lexer.next st.lx);
        go (lift2 st Expr.add acc (parse_mul st))
    | Lexer.MINUS ->
        ignore (Lexer.next st.lx);
        go (lift2 st Expr.sub acc (parse_mul st))
    | _ -> acc
  in
  go (parse_mul st)

and parse_mul st =
  let rec go acc =
    match Lexer.peek st.lx with
    | Lexer.STAR ->
        ignore (Lexer.next st.lx);
        go (lift2 st Expr.mul acc (parse_pow st))
    | Lexer.SLASH ->
        ignore (Lexer.next st.lx);
        go (lift2 st Expr.div acc (parse_pow st))
    | _ -> acc
  in
  go (parse_pow st)

and parse_pow st =
  let base = parse_atom st in
  match Lexer.peek st.lx with
  | Lexer.CARET -> (
      ignore (Lexer.next st.lx);
      let exponent = deeper st (fun () -> parse_pow st) (* right associative *) in
      match (base.expr, exponent.expr) with
      | Some b, Some e when Expr.equal b (Expr.int 2) ->
          { expr = Some (fold st (fun () -> Expr.pow2 e)); reads = base.reads @ exponent.reads }
      | Some b, Some e -> (
          match Expr.to_int e with
          | Some n when n >= 0 ->
              let rec pow acc k = if k = 0 then acc else pow (Expr.mul acc b) (k - 1) in
              {
                expr = Some (fold st (fun () -> pow Expr.one n));
                reads = base.reads @ exponent.reads;
              }
          | _ -> fail st "only 2^e or a constant exponent is supported")
      | _ -> fail st "array reference in exponent")
  | _ -> base

and parse_atom st =
  match Lexer.next st.lx with
  | Lexer.INT n -> pure (Expr.int n)
  | Lexer.MINUS ->
      let v = parse_atom st in
      (match v.expr with
      | Some e -> { v with expr = Some (Expr.neg e) }
      | None -> fail st "cannot negate an array reference")
  | Lexer.LPAREN ->
      let v = deeper st (fun () -> parse_expr st) in
      expect st Lexer.RPAREN;
      v
  | Lexer.IDENT name ->
      if Lexer.peek st.lx = Lexer.LPAREN && is_array st name then begin
        ignore (Lexer.next st.lx);
        let subscripts = parse_subscripts st [] in
        {
          expr = None;
          reads = [ { Types.array = name; index = subscripts; access = Read } ];
        }
      end
      else pure (Expr.var name)
  | got -> fail st (Format.asprintf "unexpected %a in expression" Lexer.pp_token got)

and parse_subscripts st acc =
  let v = parse_expr st in
  let e =
    match v.expr with
    | Some e when v.reads = [] -> e
    | _ -> fail st "array reference inside a subscript"
  in
  match Lexer.next st.lx with
  | Lexer.COMMA -> parse_subscripts st (e :: acc)
  | Lexer.RPAREN -> List.rev (e :: acc)
  | got -> fail st (Format.asprintf "expected , or ) in subscripts, got %a" Lexer.pp_token got)

let parse_pure_expr st what =
  let v = parse_expr st in
  match v.expr with
  | Some e when v.reads = [] -> e
  | _ -> fail st ("array reference not allowed in " ^ what)

(* ------------------------------------------------------------------ *)
(* Statements and loops *)

let rec parse_body st : Types.stmt list =
  skip_newlines st;
  match Lexer.peek st.lx with
  | Lexer.KW "end" ->
      ignore (Lexer.next st.lx);
      newline st;
      []
  | Lexer.KW ("do" | "doall") ->
      let l = parse_loop st in
      l :: parse_body st
  | _ ->
      let s = parse_stmt st in
      s :: parse_body st

and parse_loop st : Types.stmt =
  let parallel =
    match Lexer.next st.lx with
    | Lexer.KW "doall" -> true
    | Lexer.KW "do" -> false
    | got -> fail st (Format.asprintf "expected do/doall, got %a" Lexer.pp_token got)
  in
  let var = expect_ident st in
  expect st Lexer.EQUAL;
  let lo = parse_pure_expr st "loop bounds" in
  (match Lexer.next st.lx with
  | Lexer.COMMA | Lexer.KW "to" -> ()
  | got -> fail st (Format.asprintf "expected , in loop header, got %a" Lexer.pp_token got));
  let hi = parse_pure_expr st "loop bounds" in
  let step =
    if Lexer.peek st.lx = Lexer.KW "step" then begin
      ignore (Lexer.next st.lx);
      parse_pure_expr st "loop step"
    end
    else Expr.one
  in
  newline st;
  let body = parse_body st in
  Types.Loop { var; lo; hi; step; parallel; body }

and parse_stmt st : Types.stmt =
  (* ref {, ref} [= expr] [work N]: with [=] the listed references are
     written after the right-hand side's reads; without it they are
     read-only sinks *)
  let rec parse_refs acc =
    let name = expect_ident st in
    if not (is_array st name) then fail st (name ^ " is not a declared array");
    expect st Lexer.LPAREN;
    let index = parse_subscripts st [] in
    let acc = { Types.array = name; index; access = Types.Read } :: acc in
    if Lexer.peek st.lx = Lexer.COMMA then begin
      ignore (Lexer.next st.lx);
      parse_refs acc
    end
    else List.rev acc
  in
  let listed = parse_refs [] in
  let refs =
    if Lexer.peek st.lx = Lexer.EQUAL then begin
      ignore (Lexer.next st.lx);
      let rhs = parse_expr st in
      rhs.reads @ List.map (fun r -> { r with Types.access = Types.Write }) listed
    end
    else listed
  in
  let work =
    if Lexer.peek st.lx = Lexer.KW "work" then begin
      ignore (Lexer.next st.lx);
      expect_int st
    end
    else 1
  in
  newline st;
  Types.Assign { refs; work }

let parse_phase st : Types.phase =
  expect st (Lexer.KW "phase");
  let name = expect_ident st in
  if Lexer.peek st.lx = Lexer.COLON then ignore (Lexer.next st.lx);
  newline st;
  skip_newlines st;
  match parse_loop st with
  | Types.Loop nest -> { Types.phase_name = name; nest }
  | _ -> fail st "phase body must be a loop nest"

(* sub NAME(A(dims), B(dims)) ... phases ... endsub *)
let parse_sub st : Inline.subroutine =
  expect st (Lexer.KW "sub");
  let sub_name = expect_ident st in
  expect st Lexer.LPAREN;
  let rec formals acc =
    let name = expect_ident st in
    expect st Lexer.LPAREN;
    let dims = parse_subscripts st [] in
    match Lexer.next st.lx with
    | Lexer.COMMA -> formals ({ Types.name; dims } :: acc)
    | Lexer.RPAREN -> List.rev ({ Types.name; dims } :: acc)
    | got ->
        fail st (Format.asprintf "expected , or ) in formals, got %a" Lexer.pp_token got)
  in
  let fs = formals [] in
  newline st;
  (* formals are visible as arrays inside the body *)
  let saved = st.arrays in
  st.arrays <- st.arrays @ fs;
  let phases = ref [] in
  let rec body () =
    skip_newlines st;
    match Lexer.peek st.lx with
    | Lexer.KW "phase" ->
        phases := parse_phase st :: !phases;
        body ()
    | Lexer.KW "endsub" ->
        ignore (Lexer.next st.lx);
        newline st
    | got ->
        fail st (Format.asprintf "expected phase or endsub, got %a" Lexer.pp_token got)
  in
  body ();
  st.arrays <- saved;
  { Inline.sub_name; formals = fs; body = List.rev !phases }

(* call NAME(G, G2(offset), ...) *)
let parse_call st tag : Inline.call =
  expect st (Lexer.KW "call");
  let name = expect_ident st in
  let sub =
    match
      List.find_opt (fun (s : Inline.subroutine) -> s.sub_name = name) st.subs
    with
    | Some s -> s
    | None -> fail st ("unknown subroutine " ^ name)
  in
  expect st Lexer.LPAREN;
  let rec actuals acc =
    let target = expect_ident st in
    (match
       List.find_opt
         (fun (a : Types.array_decl) -> String.equal a.name target)
         st.arrays
     with
    | None -> fail st (target ^ " is not a declared array")
    | Some d when List.length d.dims <> 1 ->
        fail st (target ^ " must be a flat array to pass by section")
    | Some _ -> ());
    let base =
      if Lexer.peek st.lx = Lexer.LPAREN then begin
        ignore (Lexer.next st.lx);
        let e = parse_pure_expr st "section offset" in
        expect st Lexer.RPAREN;
        e
      end
      else Expr.zero
    in
    let acc = { Inline.target; base } :: acc in
    match Lexer.next st.lx with
    | Lexer.COMMA -> actuals acc
    | Lexer.RPAREN -> List.rev acc
    | got ->
        fail st (Format.asprintf "expected , or ) in call, got %a" Lexer.pp_token got)
  in
  let acts = actuals [] in
  newline st;
  if List.length acts <> List.length sub.formals then
    fail st (Printf.sprintf "%s expects %d arguments, got %d" name
               (List.length sub.formals) (List.length acts));
  {
    Inline.sub;
    bindings =
      List.map2 (fun (f : Types.array_decl) a -> (f.name, a)) sub.formals acts;
    tag;
  }

let program source =
  let st = { lx = Lexer.of_string source; arrays = []; subs = []; depth = 0 } in
  try
    skip_newlines st;
    expect st (Lexer.KW "program");
    let prog_name = expect_ident st in
    newline st;
    let params = ref [] in
    let rec decls () =
      skip_newlines st;
      match Lexer.peek st.lx with
      | Lexer.KW "param" ->
          ignore (Lexer.next st.lx);
          let name = expect_ident st in
          expect st Lexer.EQUAL;
          let lo = expect_int st in
          expect st Lexer.DOTDOT;
          let hi = expect_int st in
          newline st;
          params := (name, Assume.Int_range (lo, hi)) :: !params;
          decls ()
      | Lexer.KW "pow2" ->
          ignore (Lexer.next st.lx);
          let name = expect_ident st in
          expect st Lexer.EQUAL;
          let base = expect_ident st in
          newline st;
          params := (name, Assume.Pow2_of base) :: !params;
          decls ()
      | Lexer.KW "real" ->
          ignore (Lexer.next st.lx);
          let name = expect_ident st in
          expect st Lexer.LPAREN;
          let dims = parse_subscripts st [] in
          newline st;
          st.arrays <- st.arrays @ [ { Types.name; dims } ];
          decls ()
      | _ -> ()
    in
    decls ();
    let phases = ref [] in
    let repeats = ref false in
    let call_count = ref 0 in
    let rec tail () =
      skip_newlines st;
      match Lexer.peek st.lx with
      | Lexer.KW "phase" ->
          phases := parse_phase st :: !phases;
          tail ()
      | Lexer.KW "sub" ->
          st.subs <- st.subs @ [ parse_sub st ];
          tail ()
      | Lexer.KW "call" ->
          incr call_count;
          let c = parse_call st (Printf.sprintf "C%d" !call_count) in
          (try
             List.iter
               (fun ph -> phases := ph :: !phases)
               (Inline.expand c)
           with Inline.Bad_call msg -> fail st msg);
          tail ()
      | Lexer.KW "repeat" ->
          ignore (Lexer.next st.lx);
          repeats := true;
          newline st;
          tail ()
      | Lexer.EOF -> ()
      | got ->
          fail st (Format.asprintf "unexpected %a at top level" Lexer.pp_token got)
    in
    tail ();
    if !phases = [] then fail st "program has no phases";
    {
      Types.prog_name;
      params = Assume.of_list (List.rev !params);
      arrays = st.arrays;
      phases = List.rev !phases;
      repeats = !repeats;
    }
  with
  | Lexer.Error { line; message } -> raise (Error { line; message })
  | Stack_overflow ->
      raise
        (Error { line = Lexer.line st.lx; message = "program nested too deeply" })

let program_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> program (really_input_string ic (in_channel_length ic)))
