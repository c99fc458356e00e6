(** First-order CTL formulas over program points (Section 2.2).

    Temporal operators come in forward ([→], over successors) and backward
    ([←], over predecessors) flavours.  Atoms are the local predicates of
    Figure 3 plus the global predicates [conlit] and [freevar]. *)

type direction = Fwd | Bwd

type atom =
  | Def of Patterns.var_arg  (** [def(x)]: [I_l] defines [x] *)
  | Use of Patterns.var_arg  (** [use(x)]: [I_l] uses [x] *)
  | Stmt of Patterns.instr_pat  (** [stmt(I)]: [I] matches [I_l] *)
  | Point of Patterns.point_arg  (** [point(m)]: [l = m] *)
  | Trans of string  (** [trans(e)]: [I_l] modifies no constituent of the
                         expression bound to meta [e] *)
  | Lives of Patterns.var_arg  (** [lives(x)], expanded per Figure 3 *)
  | Conlit of string  (** [conlit(c)]: the binding of [c] is a literal *)
  | Freevar of Patterns.var_arg * string  (** [freevar(x, e)] *)
  | Pure of string
      (** [pure(e)]: the expression bound to [e] cannot abort (no division
          or modulo).  Not in the paper, whose expression language is left
          abstract; needed here so that deleting an expression evaluation
          (DCE) preserves semantics in the presence of aborting division. *)

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | AX of direction * t  (** [→AX] / [←AX] *)
  | EX of direction * t
  | AU of direction * t * t  (** [A(φ U ψ)] *)
  | EU of direction * t * t

(* Convenience constructors mirroring the paper's notation. *)
let def x = Atom (Def x)
let use x = Atom (Use x)
let stmt p = Atom (Stmt p)
let point m = Atom (Point m)
let trans e = Atom (Trans e)
let lives x = Atom (Lives x)
let conlit c = Atom (Conlit c)
let freevar x e = Atom (Freevar (x, e))
let pure e = Atom (Pure e)
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let neg a = Not a
let ax_fwd f = AX (Fwd, f)
let ax_bwd f = AX (Bwd, f)
let ex_fwd f = EX (Fwd, f)
let au_fwd a b = AU (Fwd, a, b)
let au_bwd a b = AU (Bwd, a, b)
let eu_fwd a b = EU (Fwd, a, b)
let eu_bwd a b = EU (Bwd, a, b)

(** The definition of [lives(x)] from Figure 3:
    [←AX ←A (true U def(x)) ∧ →E (¬def(x) U use(x))]. *)
let lives_definition (x : Patterns.var_arg) : t =
  ax_bwd (au_bwd True (def x)) &&& eu_fwd (neg (def x)) (use x)

(** The [ud] predicate from Algorithm 1's footnote:
    [ud(x, p̄, ld, lr) ≜ p̄, lr |= ←AX ←A (¬def(x) U (point(ld) ∧ def(x)))].
    Holds at [lr] iff the definition of [x] at [ld] is the unique definition
    reaching [lr] — on {e all} backward paths. *)
let ud (x : Patterns.var_arg) (ld : Patterns.point_arg) : t =
  ax_bwd (au_bwd (neg (def x)) (point ld &&& def x))

(** Free meta-variables of a formula, with the kind of object each position
    expects — used by the solver to enumerate candidate bindings. *)
type meta_kind = Kvar | Knum | Kexpr | Kpoint

let free_metas (f : t) : (string * meta_kind) list =
  let acc = ref [] in
  let add m k = if not (List.mem_assoc m !acc) then acc := (m, k) :: !acc in
  let var_arg = function Patterns.Vmeta m -> add m Kvar | Vlit _ -> () in
  let point_arg = function Patterns.Lmeta m -> add m Kpoint | Llit _ -> () in
  let num_arg = function Patterns.Nmeta m -> add m Knum | Nlit _ -> () in
  let rec expr_pat = function
    | Patterns.Pnum na -> num_arg na
    | Pvar va -> var_arg va
    | Pbinop (_, a, b) ->
        expr_pat a;
        expr_pat b
    | Punop (_, a) -> expr_pat a
    | Pexpr m -> add m Kexpr
    | Pexpr_using (m, va) ->
        add m Kexpr;
        var_arg va
    | Pexpr_subst (m, va, rhs) -> (
        add m Kexpr;
        var_arg va;
        match rhs with Rnum na -> num_arg na | Rvar va' -> var_arg va' | Rexpr m' -> add m' Kexpr)
  in
  let instr_pat = function
    | Patterns.Passign (va, ep) ->
        var_arg va;
        expr_pat ep
    | Pif (ep, pa) ->
        expr_pat ep;
        point_arg pa
    | Pgoto pa -> point_arg pa
    | Pskip | Pabort -> ()
    | Pany _ -> ()
  in
  let atom = function
    | Def va | Use va | Lives va -> var_arg va
    | Stmt ip -> instr_pat ip
    | Point pa -> point_arg pa
    | Trans m | Conlit m | Pure m -> add m Kexpr
    | Freevar (va, m) ->
        var_arg va;
        add m Kexpr
  in
  let rec go = function
    | True | False -> ()
    | Atom a -> atom a
    | Not f -> go f
    | And (a, b) | Or (a, b) | Implies (a, b) | AU (_, a, b) | EU (_, a, b) ->
        go a;
        go b
    | AX (_, f) | EX (_, f) -> go f
  in
  go f;
  List.rev !acc
