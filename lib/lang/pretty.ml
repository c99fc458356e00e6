(** Pretty-printing of programs in the concrete syntax accepted by
    {!Parser}. *)

let binop_to_string : Ast.binop -> string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

(* Precedence levels for minimal parenthesisation; higher binds tighter. *)
let binop_prec : Ast.binop -> int = function
  | Or -> 1
  | And -> 2
  | Eq | Ne -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6

let rec expr_doc ~prec (e : Ast.expr) : string =
  match e with
  | Num n -> if n < 0 && prec >= 7 then Printf.sprintf "(%d)" n else string_of_int n
  | Var x -> x
  | Unop (Neg, Num n) ->
      (* -literal would re-parse as a (collapsed) literal; parenthesise. *)
      Printf.sprintf "-(%s)" (expr_doc ~prec:0 (Num n))
  | Unop (Neg, a) -> Printf.sprintf "-%s" (expr_doc ~prec:7 a)
  | Unop (Not, a) -> Printf.sprintf "!%s" (expr_doc ~prec:7 a)
  | Binop (op, a, b) ->
      let p = binop_prec op in
      let s =
        Printf.sprintf "%s %s %s" (expr_doc ~prec:p a) (binop_to_string op)
          (expr_doc ~prec:(p + 1) b)
      in
      if p < prec then "(" ^ s ^ ")" else s

let expr_to_string (e : Ast.expr) = expr_doc ~prec:0 e

let instr_to_string : Ast.instr -> string = function
  | Assign (x, e) -> Printf.sprintf "%s := %s" x (expr_to_string e)
  | If (e, m) -> Printf.sprintf "if (%s) goto %d" (expr_to_string e) m
  | Goto m -> Printf.sprintf "goto %d" m
  | Skip -> "skip"
  | Abort -> "abort"
  | In xs -> "in " ^ String.concat " " xs
  | Out xs -> "out " ^ String.concat " " xs

(** Render with 1-based point labels, one instruction per line. *)
let program_to_string (p : Ast.program) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i instr -> Buffer.add_string buf (Printf.sprintf "%2d: %s\n" (i + 1) (instr_to_string instr)))
    p;
  Buffer.contents buf

(** Render without point labels — re-parseable by {!Parser.parse_program}. *)
let program_to_source (p : Ast.program) =
  String.concat "\n" (Array.to_list (Array.map instr_to_string p)) ^ "\n"
