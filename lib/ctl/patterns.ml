(** Instruction and expression patterns with meta-variables, shared by the
    CTL side-condition language (Section 2.2) and the rewrite-rule engine
    (Definition 2.8).

    A meta-variable is a named hole; a {!subst} maps names to program
    objects.  Matching unifies a pattern against a concrete object, extending
    a substitution consistently. *)

module SMap = Map.Make (String)

type binding =
  | Bvar of Minilang.Ast.var  (** binds a program variable name *)
  | Bnum of int  (** binds an integer literal *)
  | Bexpr of Minilang.Ast.expr  (** binds an arbitrary expression *)
  | Bpoint of int  (** binds a program point *)

let equal_binding a b =
  match (a, b) with
  | Bvar x, Bvar y -> String.equal x y
  | Bnum x, Bnum y -> Int.equal x y
  | Bexpr x, Bexpr y -> Minilang.Ast.equal_expr x y
  | Bpoint x, Bpoint y -> Int.equal x y
  | (Bvar _ | Bnum _ | Bexpr _ | Bpoint _), _ -> false

type subst = binding SMap.t

let empty_subst : subst = SMap.empty

(** Extend [s] with [name ↦ b]; [None] on an inconsistent rebinding. *)
let bind (s : subst) (name : string) (b : binding) : subst option =
  match SMap.find_opt name s with
  | None -> Some (SMap.add name b s)
  | Some b' -> if equal_binding b b' then Some s else None

let lookup (s : subst) (name : string) = SMap.find_opt name s

let pp_binding ppf = function
  | Bvar x -> Fmt.pf ppf "var %s" x
  | Bnum n -> Fmt.pf ppf "num %d" n
  | Bexpr e -> Fmt.pf ppf "expr %s" (Minilang.Pretty.expr_to_string e)
  | Bpoint l -> Fmt.pf ppf "point %d" l

(** Reference to a program variable: concrete or meta. *)
type var_arg = Vlit of Minilang.Ast.var | Vmeta of string

(** Reference to a program point. *)
type point_arg = Llit of int | Lmeta of string

(** Reference to an integer literal. *)
type num_arg = Nlit of int | Nmeta of string

type expr_pat =
  | Pnum of num_arg
  | Pvar of var_arg  (** a lone variable occurrence *)
  | Pbinop of Minilang.Ast.binop * expr_pat * expr_pat
  | Punop of Minilang.Ast.unop * expr_pat
  | Pexpr of string  (** meta-variable standing for any expression *)
  | Pexpr_using of string * var_arg
      (** [e\[x\]]: any expression containing the variable; binds [e] and,
          when the var is meta, enumerates each contained variable choice *)
  | Pexpr_subst of string * var_arg * subst_rhs
      (** [e\[x ↦ r\]]: the expression bound to the meta, with every
          occurrence of the variable replaced — only meaningful on rule
          right-hand sides *)

and subst_rhs = Rnum of num_arg | Rvar of var_arg | Rexpr of string

type instr_pat =
  | Passign of var_arg * expr_pat
  | Pif of expr_pat * point_arg
  | Pgoto of point_arg
  | Pskip
  | Pabort
  | Pany of string  (** meta-variable standing for any instruction *)

(* ------------------------------------------------------------------ *)
(* Matching: pattern × concrete → substitution extensions.             *)
(* ------------------------------------------------------------------ *)

let match_var (s : subst) (va : var_arg) (x : Minilang.Ast.var) : subst option =
  match va with
  | Vlit y -> if String.equal x y then Some s else None
  | Vmeta m -> bind s m (Bvar x)

let match_point (s : subst) (pa : point_arg) (l : int) : subst option =
  match pa with Llit m -> if l = m then Some s else None | Lmeta m -> bind s m (Bpoint l)

let match_num (s : subst) (na : num_arg) (n : int) : subst option =
  match na with Nlit k -> if n = k then Some s else None | Nmeta m -> bind s m (Bnum n)

(** Matching can be non-deterministic ([Pexpr_using] with a meta variable
    enumerates the variables of the matched expression), so matchers return
    all consistent extensions. *)
let rec match_expr (s : subst) (pat : expr_pat) (e : Minilang.Ast.expr) : subst list =
  match (pat, e) with
  | Pnum na, Num n -> Option.to_list (match_num s na n)
  | Pvar va, Var x -> Option.to_list (match_var s va x)
  | Pbinop (op, pa, pb), Binop (op', a, b) when op = op' ->
      List.concat_map (fun s' -> match_expr s' pb b) (match_expr s pa a)
  | Punop (op, pa), Unop (op', a) when op = op' -> match_expr s pa a
  | Pexpr m, _ -> Option.to_list (bind s m (Bexpr e))
  | Pexpr_using (m, va), _ -> (
      match bind s m (Bexpr e) with
      | None -> []
      | Some s' -> (
          let vars = Minilang.Ast.expr_vars e in
          match va with
          | Vlit x -> if List.mem x vars then [ s' ] else []
          | Vmeta _ -> List.filter_map (fun x -> match_var s' va x) vars))
  | Pexpr_subst _, _ ->
      invalid_arg "Patterns.match_expr: Pexpr_subst is only valid on rule right-hand sides"
  | (Pnum _ | Pvar _ | Pbinop _ | Punop _), _ -> []

let match_instr (s : subst) (pat : instr_pat) (i : Minilang.Ast.instr) : subst list =
  match (pat, i) with
  | Passign (va, ep), Assign (x, e) -> (
      match match_var s va x with None -> [] | Some s' -> match_expr s' ep e)
  | Pif (ep, pa), If (e, m) -> (
      match match_point s pa m with None -> [] | Some s' -> match_expr s' ep e)
  | Pgoto pa, Goto m -> Option.to_list (match_point s pa m)
  | Pskip, Skip -> [ s ]
  | Pabort, Abort -> [ s ]
  | Pany _, (In _ | Out _) -> []  (* rules never touch the in/out frame *)
  | Pany m, _ -> (
      match SMap.find_opt m s with
      | None -> [ s ]  (* instruction metas are tracked outside substs *)
      | Some _ -> [ s ])
  | (Passign _ | Pif _ | Pgoto _ | Pskip | Pabort), _ -> []

(* ------------------------------------------------------------------ *)
(* Instantiation: closed pattern × substitution → concrete object.     *)
(* ------------------------------------------------------------------ *)

exception Unresolved of string

let inst_var (s : subst) = function
  | Vlit x -> x
  | Vmeta m -> (
      match lookup s m with
      | Some (Bvar x) -> x
      | Some _ | None -> raise (Unresolved m))

let inst_point (s : subst) = function
  | Llit l -> l
  | Lmeta m -> (
      match lookup s m with
      | Some (Bpoint l) -> l
      | Some _ | None -> raise (Unresolved m))

let inst_num (s : subst) = function
  | Nlit n -> n
  | Nmeta m -> (
      match lookup s m with
      | Some (Bnum n) -> n
      | Some (Bexpr (Num n)) -> n
      | Some _ | None -> raise (Unresolved m))

let rec subst_var_in_expr (x : Minilang.Ast.var) (by : Minilang.Ast.expr) (e : Minilang.Ast.expr)
    : Minilang.Ast.expr =
  match e with
  | Num _ -> e
  | Var y -> if String.equal x y then by else e
  | Binop (op, a, b) -> Binop (op, subst_var_in_expr x by a, subst_var_in_expr x by b)
  | Unop (op, a) -> Unop (op, subst_var_in_expr x by a)

let rec inst_expr (s : subst) (pat : expr_pat) : Minilang.Ast.expr =
  match pat with
  | Pnum na -> Num (inst_num s na)
  | Pvar va -> Var (inst_var s va)
  | Pbinop (op, a, b) -> Binop (op, inst_expr s a, inst_expr s b)
  | Punop (op, a) -> Unop (op, inst_expr s a)
  | Pexpr m | Pexpr_using (m, _) -> (
      match lookup s m with
      | Some (Bexpr e) -> e
      | Some (Bnum n) -> Num n
      | Some (Bvar x) -> Var x
      | Some (Bpoint _) | None -> raise (Unresolved m))
  | Pexpr_subst (m, va, rhs) -> (
      let x = inst_var s va in
      let by : Minilang.Ast.expr =
        match rhs with
        | Rnum na -> Num (inst_num s na)
        | Rvar va' -> Var (inst_var s va')
        | Rexpr m' -> (
            match lookup s m' with
            | Some (Bexpr e) -> e
            | Some (Bnum n) -> Num n
            | Some (Bvar y) -> Var y
            | Some (Bpoint _) | None -> raise (Unresolved m'))
      in
      match lookup s m with
      | Some (Bexpr e) -> subst_var_in_expr x by e
      | Some _ | None -> raise (Unresolved m))

let inst_instr (s : subst) (pat : instr_pat) : Minilang.Ast.instr =
  match pat with
  | Passign (va, ep) -> Assign (inst_var s va, inst_expr s ep)
  | Pif (ep, pa) -> If (inst_expr s ep, inst_point s pa)
  | Pgoto pa -> Goto (inst_point s pa)
  | Pskip -> Skip
  | Pabort -> Abort
  | Pany m -> raise (Unresolved m)
