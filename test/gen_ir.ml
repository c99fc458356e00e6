(** QCheck generator for MiniIR functions in alloca form ("clang -O0"
    style): scalar slots and a small array manipulated through structured
    statements, lowered to basic blocks.  Generated functions always
    terminate (loops are counter-bounded) and never read uninitialized
    slots (everything is zero-initialized in the entry block).

    Loops come top-tested ([while]) and bottom-tested ([do … while]).  A
    bottom-tested loop's body dominates its exit, so after mem2reg a slot
    stored in an inner loop and read after its enclosing loop is a value
    defined in the inner loop and used outside both, with no φ in between
    — the shape LCSSA must close for every loop it leaves. *)

open QCheck

module Ir = Miniir.Ir
module Builder = Miniir.Builder

let slot_names = [ "s0"; "s1"; "s2"; "s3" ]
let array_name = "arr"
let array_size = 8  (* power of two: indexes are masked with [size-1] *)

type expr =
  | Econst of int
  | Eparam of string
  | Eload of string  (* slot *)
  | Earr of expr  (* arr[e & 7] *)
  | Ebin of Ir.binop * expr * expr
  | Eintr of string * expr list

type stmt =
  | Sstore of string * expr
  | Sarr_store of expr * expr  (* arr[e1 & 7] := e2 *)
  | Sif of expr * stmt list * stmt list
  | Swhile of int * stmt list  (* bound, body *)
  | Sdo of int * stmt list  (* bound, body: runs the body [bound] times, at least once *)
  | Semit of expr  (* observable event *)

let gen_expr : expr Gen.t =
  let open Gen in
  let leaf =
    oneof
      [
        map (fun n -> Econst n) (int_range (-10) 10);
        map (fun p -> Eparam p) (oneofl [ "x"; "y" ]);
        map (fun s -> Eload s) (oneofl slot_names);
      ]
  in
  let binop = oneofl [ Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Shl ] in
  (* Shl with potentially large operands is fine: Fold/VM reject shifts
     outside [0,62], so mask the shift amount at generation time instead. *)
  let fix_shift op a b = if op = Ir.Shl then Ebin (Ir.Shl, a, Ebin (Ir.And, b, Econst 3)) else Ebin (op, a, b) in
  sized_size (int_range 0 3)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (4, map3 fix_shift binop (self (n / 2)) (self (n / 2)));
               (1, map (fun e -> Earr e) (self (n / 2)));
               ( 1,
                 oneof
                   [
                     map (fun e -> Eintr ("abs", [ e ])) (self (n / 2));
                     map2 (fun a b -> Eintr ("min", [ a; b ])) (self (n / 2)) (self (n / 2));
                     map2 (fun a b -> Eintr ("max", [ a; b ])) (self (n / 2)) (self (n / 2));
                   ] );
             ]))

let rec gen_stmts ~depth len : stmt list Gen.t =
  let open Gen in
  if len = 0 then return []
  else
    let* s = gen_stmt ~depth in
    let* rest = gen_stmts ~depth (len - 1) in
    return (s :: rest)

and gen_stmt ~depth : stmt Gen.t =
  let open Gen in
  let simple =
    frequency
      [
        (6, map2 (fun s e -> Sstore (s, e)) (oneofl slot_names) gen_expr);
        (2, map2 (fun i e -> Sarr_store (i, e)) gen_expr gen_expr);
        (1, map (fun e -> Semit e) gen_expr);
      ]
  in
  if depth = 0 then simple
  else
    frequency
      [
        (5, simple);
        ( 2,
          let* c = gen_expr in
          let* tl = int_range 1 3 and* fl = int_range 0 2 in
          let* tb = gen_stmts ~depth:(depth - 1) tl in
          let* fb = gen_stmts ~depth:(depth - 1) fl in
          return (Sif (c, tb, fb)) );
        ( 2,
          let* bound = int_range 1 4 in
          let* bl = int_range 1 3 in
          let* body = gen_stmts ~depth:(depth - 1) bl in
          return (Swhile (bound, body)) );
        ( 1,
          let* bound = int_range 1 3 in
          let* bl = int_range 1 3 in
          let* body = gen_stmts ~depth:(depth - 1) bl in
          return (Sdo (bound, body)) );
      ]

(* ------------------------------------------------------------------ *)
(* Lowering                                                             *)
(* ------------------------------------------------------------------ *)

type lower_state = { b : Builder.t; mutable next_label : int; mutable next_counter : int }

let fresh_label st prefix =
  let n = st.next_label in
  st.next_label <- n + 1;
  Printf.sprintf "%s%d" prefix n

let slot_reg s = s ^ ".slot"

(* A fresh loop-counter slot.  It is allocated here, in the current block
   (which dominates the loop), not in the entry block: the builder is
   already past the entry. *)
let counter_slot (st : lower_state) : Ir.value =
  let counter = Printf.sprintf "cnt%d.slot" st.next_counter in
  st.next_counter <- st.next_counter + 1;
  Builder.alloca ~reg:counter st.b

let rec lower_expr (st : lower_state) (e : expr) : Ir.value =
  match e with
  | Econst n -> Ir.Const n
  | Eparam p -> Builder.param st.b p
  | Eload s -> Builder.load st.b (Ir.Reg (slot_reg s))
  | Earr idx ->
      let i = lower_expr st idx in
      let masked = Builder.band st.b i (Ir.Const (array_size - 1)) in
      let addr = Builder.add st.b (Ir.Reg (slot_reg array_name)) masked in
      Builder.load st.b addr
  | Ebin (op, a, b) ->
      let va = lower_expr st a in
      let vb = lower_expr st b in
      Builder.binop st.b op va vb
  | Eintr (name, args) ->
      let vs = List.map (lower_expr st) args in
      Builder.call st.b name vs

let rec lower_stmt (st : lower_state) (s : stmt) : unit =
  match s with
  | Sstore (slot, e) ->
      let v = lower_expr st e in
      Builder.store st.b v (Ir.Reg (slot_reg slot))
  | Sarr_store (idx, e) ->
      let i = lower_expr st idx in
      let masked = Builder.band st.b i (Ir.Const (array_size - 1)) in
      let addr = Builder.add st.b (Ir.Reg (slot_reg array_name)) masked in
      let v = lower_expr st e in
      Builder.store st.b v addr
  | Semit e ->
      let v = lower_expr st e in
      Builder.call_void st.b "emit" [ v ]
  | Sif (c, tb, fb) ->
      let vc = lower_expr st c in
      let lt = fresh_label st "then" and lf = fresh_label st "else" in
      let lj = fresh_label st "join" in
      Builder.cbr st.b vc lt lf;
      Builder.add_block_at st.b lt;
      List.iter (lower_stmt st) tb;
      Builder.br st.b lj;
      Builder.add_block_at st.b lf;
      List.iter (lower_stmt st) fb;
      Builder.br st.b lj;
      Builder.add_block_at st.b lj
  | Swhile (bound, body) ->
      let caddr = counter_slot st in
      Builder.store st.b (Ir.Const 0) caddr;
      let lh = fresh_label st "head" in
      let lb = fresh_label st "body" and lx = fresh_label st "exit" in
      Builder.br st.b lh;
      Builder.add_block_at st.b lh;
      let c = Builder.load st.b caddr in
      let cond = Builder.icmp st.b Ir.Slt c (Ir.Const bound) in
      Builder.cbr st.b cond lb lx;
      Builder.add_block_at st.b lb;
      List.iter (lower_stmt st) body;
      let c2 = Builder.load st.b caddr in
      let c3 = Builder.add st.b c2 (Ir.Const 1) in
      Builder.store st.b c3 caddr;
      Builder.br st.b lh;
      Builder.add_block_at st.b lx
  | Sdo (bound, body) ->
      let caddr = counter_slot st in
      Builder.store st.b (Ir.Const 0) caddr;
      let lb = fresh_label st "do" and lx = fresh_label st "done" in
      Builder.br st.b lb;
      Builder.add_block_at st.b lb;
      List.iter (lower_stmt st) body;
      let c = Builder.load st.b caddr in
      let c2 = Builder.add st.b c (Ir.Const 1) in
      Builder.store st.b c2 caddr;
      let cond = Builder.icmp st.b Ir.Slt c2 (Ir.Const bound) in
      Builder.cbr st.b cond lb lx;
      Builder.add_block_at st.b lx

let lower (stmts : stmt list) (ret : expr) : Ir.func =
  let b = Builder.create ~name:"f" ~params:[ "x"; "y" ] in
  Builder.add_block_at b "entry";
  let st = { b; next_label = 0; next_counter = 0 } in
  List.iter
    (fun s -> ignore (Builder.alloca ~reg:(slot_reg s) b : Ir.value))
    slot_names;
  ignore (Builder.alloca ~reg:(slot_reg array_name) ~size:array_size b : Ir.value);
  List.iter (fun s -> Builder.store b (Ir.Const 0) (Ir.Reg (slot_reg s))) slot_names;
  (* Arrays start zeroed by the VM's memory model. *)
  List.iter (lower_stmt st) stmts;
  let v = lower_expr st ret in
  Builder.ret b v;
  Builder.finish b

let gen_func : Ir.func Gen.t =
  let open Gen in
  let* len = int_range 2 6 in
  let* stmts = gen_stmts ~depth:2 len in
  let* ret = gen_expr in
  return (lower stmts ret)

let print_func (f : Ir.func) = "\n" ^ Ir.func_to_string f

let arb_func : Ir.func arbitrary = make ~print:print_func gen_func

let arb_func_with_args : (Ir.func * int list) arbitrary =
  make
    ~print:(fun (f, args) ->
      print_func f ^ "args: " ^ String.concat ", " (List.map string_of_int args))
    Gen.(
      gen_func >>= fun f ->
      int_range (-20) 20 >>= fun x ->
      int_range (-20) 20 >>= fun y -> return (f, [ x; y ]))

let sample_args : int list list = [ [ 0; 0 ]; [ 1; -1 ]; [ 7; 3 ]; [ -5; 12 ]; [ 100; -100 ] ]
