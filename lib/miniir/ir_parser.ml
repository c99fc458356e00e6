(** Textual parser for MiniIR, accepting the same syntax the printer emits
    (trailing [; #id] comments are ignored; ids are reassigned in program
    order).

    {v
    func @name(%x, %y) {
    entry:
      %a = alloca
      store %x, %a
      %t = add %x, 1
      cbr %t, loop, exit
    ...
    }
    v} *)

exception Parse_error of string * int  (** message, line number *)

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (m, line))) fmt

let strip_comment s =
  match String.index_opt s ';' with Some i -> String.sub s 0 i | None -> s

let tokenize_line (s : string) : string list =
  String.split_on_char ' ' (String.map (function ',' | '\t' -> ' ' | c -> c) s)
  |> List.filter (fun t -> t <> "")

let parse_value (line : int) (tok : string) : Ir.value =
  if tok = "undef" then Ir.Undef
  else if String.length tok > 0 && tok.[0] = '%' then Ir.Reg (String.sub tok 1 (String.length tok - 1))
  else
    match int_of_string_opt tok with
    | Some n -> Ir.Const n
    | None -> fail line "expected value, got %S" tok

let binop_of_string = function
  | "add" -> Some Ir.Add
  | "sub" -> Some Ir.Sub
  | "mul" -> Some Ir.Mul
  | "sdiv" -> Some Ir.Sdiv
  | "srem" -> Some Ir.Srem
  | "shl" -> Some Ir.Shl
  | "lshr" -> Some Ir.Lshr
  | "ashr" -> Some Ir.Ashr
  | "and" -> Some Ir.And
  | "or" -> Some Ir.Or
  | "xor" -> Some Ir.Xor
  | _ -> None

let icmp_of_string = function
  | "eq" -> Some Ir.Eq
  | "ne" -> Some Ir.Ne
  | "slt" -> Some Ir.Slt
  | "sle" -> Some Ir.Sle
  | "sgt" -> Some Ir.Sgt
  | "sge" -> Some Ir.Sge
  | _ -> None

(* Parse "[label: value]" pairs already split into tokens like
   "[entry:" "0]" — we re-join and re-split on brackets instead. *)
let parse_phi_incoming (line : int) (rest : string) : (string * Ir.value) list =
  let rest = String.trim rest in
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '[' ->
          incr depth;
          if !depth <> 1 then fail line "nested [ in phi"
      | ']' ->
          decr depth;
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
      | c when !depth = 1 -> Buffer.add_char buf c
      | ' ' | ',' -> ()
      | c -> fail line "unexpected %C outside phi brackets" c)
    rest;
  List.rev_map
    (fun part ->
      match String.index_opt part ':' with
      | Some i ->
          let label = String.trim (String.sub part 0 i) in
          let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
          (label, parse_value line v)
      | None -> fail line "phi incoming %S missing ':'" part)
    !parts

let parse_rhs (line : int) (toks : string list) (raw : string) : Ir.rhs =
  match toks with
  | [ "alloca" ] -> Ir.Alloca 1
  | [ "alloca"; n ] -> (
      match int_of_string_opt n with
      | Some k when k >= 1 -> Ir.Alloca k
      | Some _ | None -> fail line "bad alloca size %S" n)
  | "load" :: [ a ] -> Ir.Load (parse_value line a)
  | "store" :: [ v; a ] -> Ir.Store (parse_value line v, parse_value line a)
  | "icmp" :: op :: [ a; b ] -> (
      match icmp_of_string op with
      | Some o -> Ir.Icmp (o, parse_value line a, parse_value line b)
      | None -> fail line "unknown icmp predicate %S" op)
  | "select" :: [ c; t; e ] ->
      Ir.Select (parse_value line c, parse_value line t, parse_value line e)
  | "phi" :: _ ->
      let idx =
        match String.index_opt raw '[' with Some i -> i | None -> fail line "phi without incomings"
      in
      Ir.Phi (parse_phi_incoming line (String.sub raw idx (String.length raw - idx)))
  | "call" :: _ ->
      (* call @name(arg, arg, ...) — slice the raw text, since the
         space/comma tokenizer glues parentheses to tokens. *)
      let at =
        match String.index_opt raw '@' with Some i -> i | None -> fail line "call without @name"
      in
      let lparen =
        match String.index_from_opt raw at '(' with
        | Some i -> i
        | None -> fail line "call without '('"
      in
      let rparen =
        match String.rindex_opt raw ')' with
        | Some i when i > lparen -> i
        | Some _ | None -> fail line "call without ')'"
      in
      let name = String.trim (String.sub raw (at + 1) (lparen - at - 1)) in
      let args_str = String.sub raw (lparen + 1) (rparen - lparen - 1) in
      let args = List.map (parse_value line) (tokenize_line args_str) in
      Ir.Call (name, args)
  | op :: [ a; b ] -> (
      match binop_of_string op with
      | Some o -> Ir.Binop (o, parse_value line a, parse_value line b)
      | None -> fail line "unknown instruction %S" op)
  | _ -> fail line "cannot parse instruction %S" raw

(** Parse one function from [src].
    @raise Parse_error on malformed input *)
let parse_func (src : string) : Ir.func =
  let lines = String.split_on_char '\n' src in
  let builder = ref None in
  let get_builder ln =
    match !builder with Some b -> b | None -> fail ln "instruction before any block label"
  in
  List.iteri
    (fun idx raw_line ->
      let ln = idx + 1 in
      let line = String.trim (strip_comment raw_line) in
      if line = "" || line = "}" then ()
      else if String.length line > 5 && String.sub line 0 5 = "func " then begin
        (* func @name(%a, %b) { *)
        let after = String.sub line 5 (String.length line - 5) in
        let name_start =
          match String.index_opt after '@' with Some i -> i + 1 | None -> fail ln "missing @name"
        in
        let paren =
          match String.index_opt after '(' with Some i -> i | None -> fail ln "missing ("
        in
        let name = String.trim (String.sub after name_start (paren - name_start)) in
        let close =
          match String.index_opt after ')' with Some i -> i | None -> fail ln "missing )"
        in
        let params_str = String.sub after (paren + 1) (close - paren - 1) in
        let params =
          tokenize_line params_str
          |> List.map (fun p ->
                 if String.length p > 0 && p.[0] = '%' then String.sub p 1 (String.length p - 1)
                 else p)
        in
        let b = Builder.create ~name ~params in
        builder := Some b
      end
      else if String.length line > 1 && line.[String.length line - 1] = ':' then begin
        let b = get_builder ln in
        let label = String.sub line 0 (String.length line - 1) in
        if Builder.has_block b label then fail ln "duplicate block label %s" label;
        Builder.add_block_at b label
      end
      else begin
        let b = get_builder ln in
        let toks = tokenize_line line in
        match toks with
        | "br" :: [ l ] -> Builder.br b l
        | "cbr" :: [ c; t; e ] -> Builder.cbr b (parse_value ln c) t e
        | "ret" :: [ v ] -> Builder.ret b (parse_value ln v)
        | [ "unreachable" ] -> Builder.unreachable b
        | reg :: "=" :: rest when String.length reg > 0 && reg.[0] = '%' ->
            let r = String.sub reg 1 (String.length reg - 1) in
            let eq = String.index line '=' in
            let raw_rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
            ignore (Builder.emit ~reg:r b (parse_rhs ln rest raw_rhs))
        | _ ->
            ignore (Builder.emit_void b (parse_rhs ln toks line))
      end)
    lines;
  match !builder with Some b -> Builder.finish b | None -> raise (Parse_error ("no function found", 0))
