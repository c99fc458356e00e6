(** The live-variable-equivalent transformations of Figure 5 — constant
    propagation (CP), dead code elimination (DCE), and code hoisting (Hoist)
    — plus the paper's Section 2.2 strength-reduction peephole example and a
    code-sinking instance of the motion rule.

    All rules rewrite in place, so the program-point mapping between input
    and output is the identity (the hypothesis of Theorem 4.6). *)

open Ctl.Patterns
open Ctl.Formula

(** Constant propagation:
    {v m : x := e[v]  ⇒  x := e[c]
       if conlit(c) ∧ m ⊨ ←A(¬def(v) U stmt(v := c)) v} *)
let cp : Rule.t =
  Rule.make ~name:"CP"
    ~entries:
      [
        {
          point_meta = "m";
          lhs = Passign (Vmeta "x", Pexpr_using ("e", Vmeta "v"));
          rhs = Passign (Vmeta "x", Pexpr_subst ("e", Vmeta "v", Rexpr "c"));
        };
      ]
    ~side:
      [
        Global (conlit "c");
        At ("m", au_bwd (neg (def (Vmeta "v"))) (stmt (Passign (Vmeta "v", Pexpr "c"))));
      ]

(** Dead code elimination:
    {v m : x := e  ⇒  skip   if m ⊨ →AX ¬→E(true U use(x)) v}
    We additionally require [pure(e)] — see {!Ctl.Formula.atom} — because
    our concrete expression language contains aborting division, which the
    paper's abstract [Expr] does not fix. *)
let dce : Rule.t =
  Rule.make ~name:"DCE"
    ~entries:
      [
        {
          point_meta = "m";
          lhs = Passign (Vmeta "x", Pexpr "e");
          rhs = Pskip;
        };
      ]
    ~side:
      [
        Global (pure "e");
        At ("m", ax_fwd (neg (eu_fwd True (use (Vmeta "x")))));
      ]

(* The side condition shared by hoisting and sinking (Figure 5, Hoist):
   p ⊨ →A(¬use(x) U point(q))  ∧
   q ⊨ ←A((¬def(x) ∨ point(q)) ∧ trans(e) U point(p)).
   Nothing in the condition orders p and q in program text: binding p before
   q hoists, after q sinks.  [Engine.applications] enumerates both. *)
let motion_side =
  [
    Rule.At ("p", au_fwd (neg (use (Vmeta "x"))) (point (Lmeta "q")));
    Rule.At
      ( "q",
        au_bwd
          ((neg (def (Vmeta "x")) ||| point (Lmeta "q")) &&& trans "e")
          (point (Lmeta "p")) );
  ]

(** Code hoisting (Figure 5):
    {v p : skip ⇒ x := e      q : x := e ⇒ skip
       if p ⊨ →A(¬use(x) U point(q)) ∧
          q ⊨ ←A((¬def(x) ∨ point(q)) ∧ trans(e) U point(p)) v}
    The rule expects a [skip] to exist at the point the instruction moves
    to (the paper notes this; [skip]s act as motion slots). *)
let hoist : Rule.t =
  Rule.make ~name:"Hoist"
    ~entries:
      [
        { point_meta = "p"; lhs = Pskip; rhs = Passign (Vmeta "x", Pexpr "e") };
        { point_meta = "q"; lhs = Passign (Vmeta "x", Pexpr "e"); rhs = Pskip };
      ]
    ~side:motion_side

(** Operator strength reduction, the Section 2.2 example:
    {v m : y := 2 * x  ⇒  y := x + x  if true v} *)
let strength_reduction : Rule.t =
  Rule.make ~name:"StrRed"
    ~entries:
      [
        {
          point_meta = "m";
          lhs = Passign (Vmeta "y", Pbinop (Mul, Pnum (Nlit 2), Pvar (Vmeta "x")));
          rhs = Passign (Vmeta "y", Pbinop (Add, Pvar (Vmeta "x"), Pvar (Vmeta "x")));
        };
      ]
    ~side:[]

(** Constant folding: [m : x := c1 ⊕ c2 ⇒ x := c]. Expressed as a family of
    rules would need arithmetic in patterns, so we provide it as a direct
    function instead; it is trivially LVE (same def, fewer uses of nothing). *)
let constant_fold (p : Minilang.Ast.program) : Minilang.Ast.program =
  let rec fold (e : Minilang.Ast.expr) : Minilang.Ast.expr =
    match e with
    | Num _ | Var _ -> e
    | Unop (op, a) -> (
        match fold a with
        | Num n -> (
            match op with
            | Neg -> Num (-n)
            | Not -> Num (if n = 0 then 1 else 0))
        | a' -> Unop (op, a'))
    | Binop (op, a, b) -> (
        match (fold a, fold b) with
        | Num x, Num y -> (
            let v =
              match (op : Minilang.Ast.binop) with
              | Add -> Some (x + y)
              | Sub -> Some (x - y)
              | Mul -> Some (x * y)
              | Div -> if y = 0 then None else Some (x / y)
              | Mod -> if y = 0 then None else Some (x mod y)
              | Eq -> Some (if x = y then 1 else 0)
              | Ne -> Some (if x <> y then 1 else 0)
              | Lt -> Some (if x < y then 1 else 0)
              | Le -> Some (if x <= y then 1 else 0)
              | Gt -> Some (if x > y then 1 else 0)
              | Ge -> Some (if x >= y then 1 else 0)
              | And -> Some (if x <> 0 && y <> 0 then 1 else 0)
              | Or -> Some (if x <> 0 || y <> 0 then 1 else 0)
            in
            match v with Some v -> Num v | None -> Binop (op, Num x, Num y))
        | a', b' -> Binop (op, a', b'))
  in
  Array.map
    (fun (i : Minilang.Ast.instr) ->
      match i with
      | Assign (x, e) -> Minilang.Ast.Assign (x, fold e)
      | If (e, m) -> If (fold e, m)
      | Goto _ | Skip | Abort | In _ | Out _ -> i)
    p

(** The standard optimization pipeline used by the minilang-level
    experiments and tests: CP to fixpoint, folding, DCE to fixpoint, then
    code motion. *)
let standard_pipeline (p : Minilang.Ast.program) : Minilang.Ast.program =
  p
  |> Engine.apply_fixpoint cp
  |> constant_fold
  |> Engine.apply_fixpoint dce
  |> Engine.apply_fixpoint hoist
