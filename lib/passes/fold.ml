open Import

(** Shared constant-evaluation rules for MiniIR, used by ConstProp, SCCP
    and the TinyVM interpreter so all three agree on arithmetic.

    Division and remainder by zero are {e not} folded: the VM traps on
    them, so folding would change observable behaviour. *)

exception Undefined

(** [op a b], or [Undefined] where MiniIR leaves it undefined: division or
    remainder by 0, a shift amount outside [\[0, 62\]].  Allocates
    nothing, so the engines call it on every binop step. *)
let binop (op : Ir.binop) (a : int) (b : int) : int =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Sdiv -> if b = 0 then raise Undefined else a / b
  | Ir.Srem -> if b = 0 then raise Undefined else a mod b
  | Ir.Shl -> if b < 0 || b > 62 then raise Undefined else a lsl b
  | Ir.Lshr -> if b < 0 || b > 62 then raise Undefined else (a land max_int) lsr b
  | Ir.Ashr -> if b < 0 || b > 62 then raise Undefined else a asr b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b

(** {!binop} as an option: [None] where it is undefined. *)
let eval_binop (op : Ir.binop) (a : int) (b : int) : int option =
  match binop op a b with v -> Some v | exception Undefined -> None

let eval_icmp (op : Ir.icmp) (a : int) (b : int) : int =
  let r =
    match op with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Slt -> a < b
    | Ir.Sle -> a <= b
    | Ir.Sgt -> a > b
    | Ir.Sge -> a >= b
  in
  if r then 1 else 0

(** Pure intrinsics (must match {!Ir.is_pure_call}). *)
let eval_intrinsic (name : string) (args : int list) : int option =
  match (name, args) with
  | "abs", [ a ] -> Some (abs a)
  | "min", [ a; b ] -> Some (min a b)
  | "max", [ a; b ] -> Some (max a b)
  | "clz", [ a ] ->
      let rec go n k = if n = 0 || k >= 63 then 63 - k else go (n lsr 1) (k + 1) in
      Some (if a = 0 then 63 else 63 - go (a land max_int) 0)
  | "hash", [ a ] ->
      (* A small deterministic mixer (xorshift-style). *)
      let h = a * 2654435761 land max_int in
      Some ((h lxor (h lsr 13)) land 0xFFFFFF)
  | _ -> None

(** Fold an rhs whose operands are all constants. *)
let fold_rhs (rhs : Ir.rhs) : int option =
  match rhs with
  | Ir.Binop (op, Const a, Const b) -> eval_binop op a b
  | Ir.Icmp (op, Const a, Const b) -> Some (eval_icmp op a b)
  | Ir.Select (Const c, Const t, Const e) -> Some (if c <> 0 then t else e)
  | Ir.Call (name, args) when Ir.is_pure_call name ->
      let consts =
        List.fold_left
          (fun acc v ->
            match (acc, v) with
            | Some l, Ir.Const n -> Some (n :: l)
            | _, (Ir.Reg _ | Ir.Undef) | None, _ -> None)
          (Some []) args
      in
      Option.bind consts (fun l -> eval_intrinsic name (List.rev l))
  | _ -> None
