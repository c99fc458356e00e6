(** Recursive-descent parser for the concrete program syntax.

    Grammar (one instruction per line):
    {v
      instr ::= "in" ident*            | "out" ident*
              | ident ":=" expr        | "if" "(" expr ")" "goto" num
              | "goto" num             | "skip" | "abort"
      expr  ::= precedence-climbing over || && == != < <= > >= + - * / %
                with unary - and !
    v} *)

exception Parse_error of string * int  (** message, line number *)

type state = { mutable toks : (Lexer.token * int) list }

let peek st = match st.toks with (t, _) :: _ -> t | [] -> Lexer.EOF
let line st = match st.toks with (_, l) :: _ -> l | [] -> 0

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let expect st tok =
  if peek st = tok then advance st
  else
    raise
      (Parse_error
         ( Printf.sprintf "expected %s but found %s" (Lexer.token_to_string tok)
             (Lexer.token_to_string (peek st)),
           line st ))

let fail st msg = raise (Parse_error (msg, line st))

let parse_num st =
  match peek st with
  | Lexer.NUM n ->
      advance st;
      n
  | Lexer.MINUS -> (
      advance st;
      match peek st with
      | Lexer.NUM n ->
          advance st;
          -n
      | t -> fail st (Printf.sprintf "expected number after '-', found %s" (Lexer.token_to_string t)))
  | t -> fail st (Printf.sprintf "expected number, found %s" (Lexer.token_to_string t))

let binop_of_token : Lexer.token -> (Ast.binop * int) option = function
  | Lexer.OROR -> Some (Ast.Or, 1)
  | Lexer.ANDAND -> Some (Ast.And, 2)
  | Lexer.EQEQ -> Some (Ast.Eq, 3)
  | Lexer.BANGEQ -> Some (Ast.Ne, 3)
  | Lexer.LT -> Some (Ast.Lt, 4)
  | Lexer.LE -> Some (Ast.Le, 4)
  | Lexer.GT -> Some (Ast.Gt, 4)
  | Lexer.GE -> Some (Ast.Ge, 4)
  | Lexer.PLUS -> Some (Ast.Add, 5)
  | Lexer.MINUS -> Some (Ast.Sub, 5)
  | Lexer.STAR -> Some (Ast.Mul, 6)
  | Lexer.SLASH -> Some (Ast.Div, 6)
  | Lexer.PERCENT -> Some (Ast.Mod, 6)
  | _ -> None

let rec parse_atom st : Ast.expr =
  match peek st with
  | Lexer.NUM n ->
      advance st;
      Ast.Num n
  | Lexer.IDENT x ->
      advance st;
      Ast.Var x
  | Lexer.MINUS -> (
      advance st;
      (* Collapse unary minus on literals so that -8 is the literal Num (-8)
         and pretty-printing round-trips. *)
      match parse_atom st with
      | Ast.Num n -> Ast.Num (-n)
      | e -> Ast.Unop (Ast.Neg, e))
  | Lexer.BANG ->
      advance st;
      Ast.Unop (Ast.Not, parse_atom st)
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr_prec st 0 in
      expect st Lexer.RPAREN;
      e
  | t -> fail st (Printf.sprintf "expected expression, found %s" (Lexer.token_to_string t))

and parse_expr_prec st min_prec : Ast.expr =
  let lhs = ref (parse_atom st) in
  let continue = ref true in
  while !continue do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_expr_prec st (prec + 1) in
        lhs := Ast.Binop (op, !lhs, rhs)
    | _ -> continue := false
  done;
  !lhs

let parse_expr st = parse_expr_prec st 0

let rec parse_ident_list st acc =
  match peek st with
  | Lexer.IDENT x ->
      advance st;
      parse_ident_list st (x :: acc)
  | _ -> List.rev acc

let parse_instr st : Ast.instr =
  match peek st with
  | Lexer.IDENT "in" ->
      advance st;
      Ast.In (parse_ident_list st [])
  | Lexer.IDENT "out" ->
      advance st;
      Ast.Out (parse_ident_list st [])
  | Lexer.IDENT "skip" ->
      advance st;
      Ast.Skip
  | Lexer.IDENT "abort" ->
      advance st;
      Ast.Abort
  | Lexer.IDENT "goto" ->
      advance st;
      Ast.Goto (parse_num st)
  | Lexer.IDENT "if" ->
      advance st;
      expect st Lexer.LPAREN;
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      (match peek st with
      | Lexer.IDENT "goto" -> advance st
      | t -> fail st (Printf.sprintf "expected 'goto', found %s" (Lexer.token_to_string t)));
      Ast.If (e, parse_num st)
  | Lexer.IDENT x ->
      advance st;
      expect st Lexer.ASSIGN;
      Ast.Assign (x, parse_expr st)
  | t -> fail st (Printf.sprintf "expected instruction, found %s" (Lexer.token_to_string t))

(** Parse a whole program.  Validates structural well-formedness
    (Definition 2.1) before returning.
    @raise Parse_error on syntax or validation failure
    @raise Lexer.Lex_error on bad input characters *)
let parse_program (src : string) : Ast.program =
  let st = { toks = Lexer.tokenize src } in
  let instrs = ref [] in
  let rec skip_newlines () =
    if peek st = Lexer.NEWLINE then begin
      advance st;
      skip_newlines ()
    end
  in
  skip_newlines ();
  while peek st <> Lexer.EOF do
    instrs := parse_instr st :: !instrs;
    (match peek st with
    | Lexer.NEWLINE | Lexer.EOF -> ()
    | t -> fail st (Printf.sprintf "trailing %s after instruction" (Lexer.token_to_string t)));
    skip_newlines ()
  done;
  let p = Array.of_list (List.rev !instrs) in
  match Ast.validate p with
  | Ok () -> p
  | Error msg -> raise (Parse_error ("invalid program: " ^ msg, 0))

(** Parse a single expression (used by tests and the CLI). *)
let parse_expression (src : string) : Ast.expr =
  let st = { toks = Lexer.tokenize src } in
  let e = parse_expr st in
  (match peek st with Lexer.NEWLINE -> advance st | _ -> ());
  if peek st <> Lexer.EOF then fail st "trailing tokens after expression";
  e
