(** One-shot compiler from MiniIR to a compact, pre-resolved program — the
    "bytecode" the compiled TinyVM engine dispatches over.

    The translation removes every per-step lookup the reference interpreter
    pays, and keeps the result small enough to hold on to (a continuation
    keeps its program for as long as it lives, see {!cached}):

    - virtual registers become numbered frame slots ([int array] frame plus
      a definedness bitmap — no string hashing).  Slots are numbered in
      name order, so {!program.regs} (slot → name) is also the name → slot
      index, searched by bisection ({!slot});
    - operands are plain ints: a slot [k >= 0], {!undef}, or a constant,
      [-2 - i] for entry [i] of the program's constant pool
      {!program.consts};
    - block labels are resolved to program-counter indices at compile time
      (a branch to a missing block compiles to an edge that traps only when
      it is actually taken, like the reference);
    - φ-nodes disappear from the instruction stream: each CFG edge carries
      a parallel-move sequence executed on the taken edge.  An edge with no
      moves is just its target pc; the others live in one flat [int array]
      ({!program.edges}).

    One program point of the source function (a body instruction or a
    terminator) is exactly one program counter, so step counts, fuel
    accounting and [next_instr_id] agree with {!Interp} instruction by
    instruction. *)

module Ir = Miniir.Ir

(** A pre-resolved operand: a slot [k >= 0], [undef], or the constant
    [consts.(-2 - o)].  [undef] traps when read as an instruction operand;
    as a φ-move source it un-defines the destination (the reference
    interpreter's lazy poison). *)
type operand = int

let undef : operand = -1

(** A branch target.  [j >= 0] is the entry pc of a block entered with no
    φ-moves.  [j < 0] is the edge record at offset [-1 - j] of
    {!program.edges}:

    [target; n; bad; overlap; dst_0; src_0; at_0; …; dst_(n-1); src_(n-1); at_(n-1)]

    - [target] is the target block's entry pc, or [-1 - i] for a missing
      block named [labels.(i)] ([No_such_block] when taken, before any
      move);
    - the [n] moves are the target's φ-nodes for this edge, with the
      semantics of the reference [enter_block]: all sources are read first
      (trapping, in φ order, on an undefined register, [Undef_read at]),
      then all destinations are written; [dst = -1] when the φ has no
      result (the read still happens, for its trap);
    - [bad >= 0] is the id of the first malformed φ entry (missing incoming
      for this edge, or a non-φ instruction in φ position): the reference
      traps [Undef_read] there after the earlier reads succeed, so the
      moves stop at that point and the engine raises after the read phase;
      [-1] = none;
    - [overlap = 1] when some source slot is also a destination slot of
      this edge: the engine must buffer the read phase (swap/cycle case). *)
type jump = int

let edge_header = 4

(** One compiled op.  The leading [int] of result-producing ops is the
    destination slot, -1 for none.  Trap attribution ids are not embedded:
    the engine reads them from {!program.ids} at the current pc. *)
type op =
  | Obinop of int * Ir.binop * operand * operand
  | Oicmp of int * Ir.icmp * operand * operand
  | Oselect of int * operand * operand * operand
  | Oalloca of int * int  (** dst, size *)
  | Oload of int * operand
  | Ostore of int * operand * operand  (** dst (the reference writes 0), value, addr *)
  | Ocall_pure of int * string * operand array
  | Ocall_event of int * string * operand array
  | Ocall_seed of int * operand  (** read_seed with its single argument *)
  | Ocall_bad_arity of string * operand array  (** args are read, then trap *)
  | Ocall_unknown of string * operand array  (** args are read, then trap *)
  | Otrap_undef  (** a φ in body position: the reference traps [Undef_read] *)
  | Obr of jump
  | Ocbr of operand * jump * jump
  | Oret of operand
  | Ounreachable of string  (** block label *)

type program = {
  func : Ir.func;  (** the source function, for its parameters and name *)
  code : op array;  (** entry at pc 0 *)
  ids : int array;  (** source program-point id per pc *)
  consts : int array;  (** constant pool, without repeats *)
  edges : int array;  (** the edge records of every jump with moves *)
  labels : string array;  (** missing branch targets *)
  regs : Ir.reg array;  (** slot → register name, sorted *)
  param_slots : int array;  (** slot of each function parameter, in order *)
  max_moves : int;  (** widest edge move list, for scratch sizing *)
}

let stat_compiles =
  Telemetry.counter ~group:"interp" "compiles" ~desc:"functions compiled to bytecode"

let stat_compiled_ops =
  Telemetry.counter ~group:"interp" "compiled_ops" ~desc:"bytecode ops emitted"

(* ------------------------------------------------------------------ *)

(** The slot of register [r] in [p], or -1 when [p] has none: a bisection
    of the sorted [regs]. *)
let slot (p : program) (r : Ir.reg) : int =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let c = String.compare r p.regs.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length p.regs)

(* [op] with every slot [k] (destination or operand) replaced by [s k]. *)
let renumber (s : int -> int) : op -> op = function
  | Obinop (d, o, a, b) -> Obinop (s d, o, s a, s b)
  | Oicmp (d, o, a, b) -> Oicmp (s d, o, s a, s b)
  | Oselect (d, c, t, e) -> Oselect (s d, s c, s t, s e)
  | Oalloca (d, n) -> Oalloca (s d, n)
  | Oload (d, a) -> Oload (s d, s a)
  | Ostore (d, v, a) -> Ostore (s d, s v, s a)
  | Ocall_pure (d, name, ops) -> Ocall_pure (s d, name, Array.map s ops)
  | Ocall_event (d, name, ops) -> Ocall_event (s d, name, Array.map s ops)
  | Ocall_seed (d, a) -> Ocall_seed (s d, s a)
  | Ocall_bad_arity (name, ops) -> Ocall_bad_arity (name, Array.map s ops)
  | Ocall_unknown (name, ops) -> Ocall_unknown (name, Array.map s ops)
  | Ocbr (c, t, e) -> Ocbr (s c, t, e)
  | Oret v -> Oret (s v)
  | (Otrap_undef | Obr _ | Ounreachable _) as op -> op

(** Compile [f].  Total on any function with at least one block, verified
    or not: malformed shapes (missing blocks, φs in body position, missing
    φ incomings) compile to ops/moves that trap exactly where the reference
    interpreter does. *)
let compile ?(telemetry = Telemetry.null) (f : Ir.func) : program =
  Telemetry.with_span telemetry ~cat:"vm" "compile" @@ fun () ->
  ignore (Ir.entry f : Ir.block) (* same [Invalid_argument] as the reference on an empty function *);
  (* Slots and pool entries are numbered in first-occurrence order while
     emitting; the slots are renumbered in name order at the end. *)
  let slots : (Ir.reg, int) Hashtbl.t = Hashtbl.create 64 and names = ref [] in
  let slot_of r =
    match Hashtbl.find_opt slots r with
    | Some k -> k
    | None ->
        let k = Hashtbl.length slots in
        Hashtbl.add slots r k;
        names := r :: !names;
        k
  in
  let pool : (int, int) Hashtbl.t = Hashtbl.create 16 and consts = ref [] in
  let operand : Ir.value -> operand = function
    | Ir.Reg r -> slot_of r
    | Ir.Undef -> undef
    | Ir.Const n -> (
        match Hashtbl.find_opt pool n with
        | Some i -> -2 - i
        | None ->
            let i = Hashtbl.length pool in
            Hashtbl.add pool n i;
            consts := n :: !consts;
            -2 - i)
  in
  let param_slots = Array.of_list (List.map slot_of f.params) in
  let dst_of (i : Ir.instr) = match i.result with Some r -> slot_of r | None -> -1 in
  (* Pass 1: a pc for every body instruction and terminator; a label names
     its first block, at that block's entry pc (φ-nodes get no pc). *)
  let blocks : (string, int * Ir.block) Hashtbl.t = Hashtbl.create 16 in
  let size =
    List.fold_left
      (fun pc (b : Ir.block) ->
        if not (Hashtbl.mem blocks b.label) then Hashtbl.add blocks b.label (pc, b);
        pc + List.length b.body + 1)
      0 f.blocks
  in
  let code = Array.make size Otrap_undef in
  let ids = Array.make size (-1) in
  let edge_words = ref [] and n_edge_words = ref 0 in
  let push w =
    edge_words := w :: !edge_words;
    incr n_edge_words
  in
  let labels = ref [] and n_labels = ref 0 in
  let max_moves = ref 0 in
  (* The jump along [pred -> target], moves from the target's φ-nodes. *)
  let jump ~(pred : string) (target : string) : jump =
    let record target_pc moves bad =
      let off = !n_edge_words in
      let overlap =
        List.exists (fun (_, s, _) -> s >= 0 && List.exists (fun (d, _, _) -> d = s) moves) moves
      in
      List.iter push [ target_pc; List.length moves; bad; Bool.to_int overlap ];
      List.iter
        (fun (d, s, at) ->
          push d;
          push s;
          push at)
        moves;
      max_moves := max !max_moves (List.length moves);
      -1 - off
    in
    match Hashtbl.find_opt blocks target with
    | None ->
        let i = !n_labels in
        labels := target :: !labels;
        incr n_labels;
        record (-1 - i) [] (-1)
    | Some (pc, tb) -> (
        let rec moves acc = function
          | [] -> (List.rev acc, -1)
          | (i : Ir.instr) :: rest -> (
              match i.rhs with
              | Ir.Phi incoming -> (
                  match List.assoc_opt pred incoming with
                  | Some v -> moves ((dst_of i, operand v, i.id) :: acc) rest
                  | None -> (List.rev acc, i.id))
              | _ -> (List.rev acc, i.id))
        in
        match moves [] tb.phis with [], -1 -> pc | mv, bad -> record pc mv bad)
  in
  (* Pass 2: emit. *)
  let pc = ref 0 in
  let emit id op =
    code.(!pc) <- op;
    ids.(!pc) <- id;
    incr pc
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          let dst = dst_of i and v = operand in
          let op =
            match i.rhs with
            | Ir.Binop (op, a, b) -> Obinop (dst, op, v a, v b)
            | Ir.Icmp (op, a, b) -> Oicmp (dst, op, v a, v b)
            | Ir.Select (c, t, e) -> Oselect (dst, v c, v t, v e)
            | Ir.Alloca n -> Oalloca (dst, n)
            | Ir.Load a -> Oload (dst, v a)
            | Ir.Store (x, a) -> Ostore (dst, v x, v a)
            | Ir.Call (name, args) ->
                let ops = Array.of_list (List.map v args) in
                if Ir.is_pure_call name then Ocall_pure (dst, name, ops)
                else (
                  match name with
                  | "print" | "emit" | "checkpoint" -> Ocall_event (dst, name, ops)
                  | "read_seed" ->
                      if Array.length ops = 1 then Ocall_seed (dst, ops.(0))
                      else Ocall_bad_arity (name, ops)
                  | _ -> Ocall_unknown (name, ops))
            | Ir.Phi _ -> Otrap_undef
          in
          emit i.id op)
        b.body;
      let term =
        match b.term with
        | Ir.Br l -> Obr (jump ~pred:b.label l)
        | Ir.Cbr (c, t, e) -> Ocbr (operand c, jump ~pred:b.label t, jump ~pred:b.label e)
        | Ir.Ret v -> Oret (operand v)
        | Ir.Unreachable -> Ounreachable b.label
      in
      emit b.term_id term)
    f.blocks;
  (* Renumber the slots in name order: [regs] is then the name index. *)
  let first = Array.of_list (List.rev !names) in
  let by_name = Array.init (Array.length first) Fun.id in
  Array.stable_sort (fun a b -> String.compare first.(a) first.(b)) by_name;
  let rank = Array.make (Array.length first) 0 in
  Array.iteri (fun k slot -> rank.(slot) <- k) by_name;
  let s k = if k >= 0 then rank.(k) else k in
  Array.iteri (fun pc op -> code.(pc) <- renumber s op) code;
  let edges = Array.of_list (List.rev !edge_words) in
  let rec renumber_edges o =
    if o < Array.length edges then begin
      let n = edges.(o + 1) in
      for j = 0 to n - 1 do
        let k = o + edge_header + (3 * j) in
        edges.(k) <- s edges.(k);
        edges.(k + 1) <- s edges.(k + 1)
      done;
      renumber_edges (o + edge_header + (3 * n))
    end
  in
  renumber_edges 0;
  Telemetry.bump telemetry stat_compiles;
  Telemetry.add telemetry stat_compiled_ops size;
  {
    func = f;
    code;
    ids;
    consts = Array.of_list (List.rev !consts);
    edges;
    labels = Array.of_list (List.rev !labels);
    regs = Array.map (fun slot -> first.(slot)) by_name;
    param_slots = Array.map s param_slots;
    max_moves = !max_moves;
  }

(* ------------------------------------------------------------------ *)

(** A function with its compiled program, compiled on first use and kept:
    how a continuation is compiled once however often it fires.  The
    program is a snapshot of [source], so [source] must not change once
    [cached] has been called on it. *)
type cached = { source : Ir.func; program : program option Atomic.t }

let cached (f : Ir.func) : cached = { source = f; program = Atomic.make None }

(** The program of [c], compiled now (on [telemetry]) if no earlier call
    compiled it.  Safe from several domains: two first calls may both
    compile, and both return the program the first to finish published. *)
let force ?telemetry (c : cached) : program =
  match Atomic.get c.program with
  | Some p -> p
  | None -> (
      let p = compile ?telemetry c.source in
      if Atomic.compare_and_set c.program None (Some p) then p
      else match Atomic.get c.program with Some p -> p | None -> assert false)
