(** Imperative builder for MiniIR functions, in the style of LLVM's
    IRBuilder: create a function, position at a block, append instructions.
    Used by the benchmark corpus, the IR parser and tests.

    Appending is O(1): the cursor block's new φ-nodes and body
    instructions are kept newest first and written into the block when the
    builder moves to another block ({!position_at}) or {!finish}es, and the
    function's block list is written once, by {!finish}.  Until then the
    function's ids and register counter are current, its blocks and the
    cursor block's instruction lists are not.  Ids, names and order are
    those of appending to the lists directly. *)

type t = {
  func : Ir.func;
  labels : Ir.block Ir.Names.t;  (** every block added, by label *)
  mutable blocks_rev : Ir.block list;  (** blocks added, newest first *)
  mutable cursor : Ir.block option;  (** block receiving appended instructions *)
  mutable phis_rev : Ir.instr list;  (** φ-nodes appended to [cursor], newest first *)
  mutable body_rev : Ir.instr list;  (** instructions appended to [cursor], newest first *)
}

let create ~(name : string) ~(params : string list) : t =
  let func =
    {
      Ir.fname = name;
      params;
      blocks = [];
      next_id = 0;
      next_reg = 0;
    }
  in
  { func; labels = Ir.Names.create 16; blocks_rev = []; cursor = None; phis_rev = []; body_rev = [] }

(* Write the cursor block's pending instructions into it. *)
let flush (b : t) : unit =
  match b.cursor with
  | None -> ()
  | Some blk ->
      if b.phis_rev <> [] then blk.phis <- blk.phis @ List.rev b.phis_rev;
      if b.body_rev <> [] then blk.body <- blk.body @ List.rev b.body_rev;
      b.phis_rev <- [];
      b.body_rev <- []

(** Is there a block labelled [label]? *)
let has_block (b : t) (label : string) : bool = Ir.Names.mem b.labels label

(** Add a new empty block (terminated by [Unreachable] until sealed) and
    return its label.  The first block added is the entry. *)
let add_block (b : t) (label : string) : string =
  if has_block b label then
    invalid_arg (Printf.sprintf "Builder.add_block: duplicate label %S" label);
  let blk =
    {
      Ir.label;
      phis = [];
      body = [];
      term = Ir.Unreachable;
      term_id = Ir.fresh_id b.func;
    }
  in
  Ir.Names.replace b.labels label blk;
  b.blocks_rev <- blk :: b.blocks_rev;
  label

(** Point the builder at an existing block. *)
let position_at (b : t) (label : string) : unit =
  match Ir.Names.find_opt b.labels label with
  | Some blk ->
      flush b;
      b.cursor <- Some blk
  | None -> invalid_arg (Printf.sprintf "Ir.block_exn: no block %S in @%s" label b.func.fname)

let add_block_at (b : t) (label : string) : unit =
  ignore (add_block b label);
  position_at b label

let current (b : t) : Ir.block =
  match b.cursor with
  | Some blk -> blk
  | None -> invalid_arg "Builder: no current block (call position_at first)"

(* Append an instruction computing [rhs] into a fresh or given register. *)
let emit ?reg ?(hint = "t") (b : t) (rhs : Ir.rhs) : Ir.value =
  ignore (current b : Ir.block);
  let r = match reg with Some r -> r | None -> Ir.fresh_reg ~hint b.func in
  let i = { Ir.id = Ir.fresh_id b.func; result = Some r; rhs } in
  (match rhs with
  | Ir.Phi _ -> b.phis_rev <- i :: b.phis_rev
  | _ -> b.body_rev <- i :: b.body_rev);
  Ir.Reg r

(* Append a void instruction (store, void call). *)
let emit_void (b : t) (rhs : Ir.rhs) : unit =
  ignore (current b : Ir.block);
  let i = { Ir.id = Ir.fresh_id b.func; result = None; rhs } in
  b.body_rev <- i :: b.body_rev

let binop ?reg ?hint (b : t) (op : Ir.binop) (x : Ir.value) (y : Ir.value) : Ir.value =
  emit ?reg ?hint b (Ir.Binop (op, x, y))

let add ?reg ?hint b x y = binop ?reg ?hint b Ir.Add x y
let sub ?reg ?hint b x y = binop ?reg ?hint b Ir.Sub x y
let mul ?reg ?hint b x y = binop ?reg ?hint b Ir.Mul x y
let sdiv ?reg ?hint b x y = binop ?reg ?hint b Ir.Sdiv x y
let srem ?reg ?hint b x y = binop ?reg ?hint b Ir.Srem x y
let band ?reg ?hint b x y = binop ?reg ?hint b Ir.And x y
let bor ?reg ?hint b x y = binop ?reg ?hint b Ir.Or x y
let bxor ?reg ?hint b x y = binop ?reg ?hint b Ir.Xor x y
let shl ?reg ?hint b x y = binop ?reg ?hint b Ir.Shl x y
let ashr ?reg ?hint b x y = binop ?reg ?hint b Ir.Ashr x y

let icmp ?reg ?hint (b : t) (op : Ir.icmp) (x : Ir.value) (y : Ir.value) : Ir.value =
  emit ?reg ?hint b (Ir.Icmp (op, x, y))

let select ?reg ?hint b c x y : Ir.value = emit ?reg ?hint b (Ir.Select (c, x, y))
let alloca ?reg ?(hint = "slot") ?(size = 1) (b : t) : Ir.value =
  emit ?reg ~hint b (Ir.Alloca size)
let load ?reg ?hint (b : t) (addr : Ir.value) : Ir.value = emit ?reg ?hint b (Ir.Load addr)
let store (b : t) (v : Ir.value) (addr : Ir.value) : unit = emit_void b (Ir.Store (v, addr))
let call ?reg ?hint (b : t) (name : string) (args : Ir.value list) : Ir.value =
  emit ?reg ?hint b (Ir.Call (name, args))
let call_void (b : t) (name : string) (args : Ir.value list) : unit =
  emit_void b (Ir.Call (name, args))

let phi ?reg ?(hint = "phi") (b : t) (incoming : (string * Ir.value) list) : Ir.value =
  emit ?reg ~hint b (Ir.Phi incoming)

(* Terminators seal the current block. *)
let br (b : t) (label : string) : unit = (current b).term <- Ir.Br label

let cbr (b : t) (cond : Ir.value) (then_ : string) (else_ : string) : unit =
  (current b).term <- Ir.Cbr (cond, then_, else_)

let ret (b : t) (v : Ir.value) : unit = (current b).term <- Ir.Ret v
let unreachable (b : t) : unit = (current b).term <- Ir.Unreachable

(** Finish: write the pending instructions and blocks into the function
    and return it (no structural checks; run {!Verifier}). *)
let finish (b : t) : Ir.func =
  flush b;
  if b.blocks_rev <> [] then begin
    b.func.blocks <- b.func.blocks @ List.rev b.blocks_rev;
    b.blocks_rev <- []
  end;
  b.func

let param (b : t) (name : string) : Ir.value =
  if List.mem name b.func.params then Ir.Reg name
  else invalid_arg (Printf.sprintf "Builder.param: %S is not a parameter" name)
