(** TinyVM: an interpreter for MiniIR with a step-wise machine API, the
    stand-in for the paper's OSRKit/TinyVM artifact (LLVM MCJIT).  The OSR
    layer drives a {!machine} instruction by instruction, so a transition
    can fire at {e any} program point, transfer the live frame, and resume
    in another function version. *)

module Ir = Miniir.Ir

type trap =
  | Division_by_zero of int  (** instruction id *)
  | Shift_out_of_range of int  (** instruction id; the amount is outside [\[0, 62\]] *)
  | Undef_read of int
  | Unknown_intrinsic of string * int
  | Unreachable_reached of string  (** block label *)
  | No_such_block of string
  | Bad_arity of string
  | Fuel_exhausted of int  (** steps executed when the budget ran out *)

let pp_trap ppf = function
  | Division_by_zero id -> Fmt.pf ppf "division by zero at #%d" id
  | Shift_out_of_range id -> Fmt.pf ppf "shift amount out of range at #%d" id
  | Undef_read id -> Fmt.pf ppf "read of undef at #%d" id
  | Unknown_intrinsic (n, id) -> Fmt.pf ppf "unknown intrinsic @%s at #%d" n id
  | Unreachable_reached l -> Fmt.pf ppf "reached 'unreachable' in block %s" l
  | No_such_block l -> Fmt.pf ppf "branch to missing block %s" l
  | Bad_arity f -> Fmt.pf ppf "wrong argument count for @%s" f
  | Fuel_exhausted n -> Fmt.pf ppf "fuel exhausted after %d steps" n

type event = { callee : string; arg_values : int list }

let equal_event a b = String.equal a.callee b.callee && a.arg_values = b.arg_values

(** Observable result of a run.  Two traps are observationally equal
    regardless of machine state — an aborting execution has undefined
    semantics in the paper's framework (Definition 2.4). *)
type outcome = {
  ret : int;
  events : event list;  (** impure intrinsic calls, in order *)
  steps : int;
}

(* Linear memory.  Cells at addresses in [\[0, 2^22)] live in 256-word
   pages, indexed by [addr lsr 8]: a page is allocated on the first store
   to it (256 words, so on the minor heap), and a page never stored to is
   [zero_page], which is shared and never written, so it reads 0.  The
   page table grows to the highest page stored to.  Every other address
   (negative, or at least 2^22) is a [far] cell.  Loads cannot tell a
   stored 0 from a cell never written. *)
let page_bits = 8
let page_mask = (1 lsl page_bits) - 1
let max_pages = 1 lsl (22 - page_bits)
let zero_page : int array = Array.make (1 lsl page_bits) 0

type memory = {
  mutable pages : int array array;  (** by page number; [zero_page] when never stored to *)
  mutable far : (int, int) Hashtbl.t;
  mutable brk : int;
}

let fresh_memory () : memory = { pages = [||]; far = Hashtbl.create 16; brk = 1024 }

let far_load (m : memory) (addr : int) : int =
  match Hashtbl.find m.far addr with v -> v | exception Not_found -> 0

(* [addr lsr page_bits] of a negative address is at least 2^54, so one
   unsigned-style compare routes it to [far] with the large ones. *)
let mem_load (m : memory) (addr : int) : int =
  let p = addr lsr page_bits in
  if p < Array.length m.pages then
    Array.unsafe_get (Array.unsafe_get m.pages p) (addr land page_mask)
  else if p < max_pages then 0
  else far_load m addr

let page_for_store (m : memory) (p : int) : int array =
  let n = Array.length m.pages in
  if p >= n then begin
    let pages = Array.make (min max_pages (max (p + 1) (2 * n))) zero_page in
    Array.blit m.pages 0 pages 0 n;
    m.pages <- pages
  end;
  let page = m.pages.(p) in
  if page != zero_page then page
  else begin
    let page = Array.make (1 lsl page_bits) 0 in
    m.pages.(p) <- page;
    page
  end

let mem_store (m : memory) (addr : int) (v : int) : unit =
  let p = addr lsr page_bits in
  if p < max_pages then Array.unsafe_set (page_for_store m p) (addr land page_mask) v
  else Hashtbl.replace m.far addr v

let mem_alloca (m : memory) (n : int) : int =
  let addr = m.brk in
  m.brk <- addr + max 1 n;
  addr

let mem_brk (m : memory) : int = m.brk

type mem_snapshot = { s_pages : int array array; s_far : (int, int) Hashtbl.t; s_brk : int }

let copy_pages (pages : int array array) : int array array =
  Array.map (fun page -> if page == zero_page then page else Array.copy page) pages

let mem_snapshot (m : memory) : mem_snapshot =
  { s_pages = copy_pages m.pages; s_far = Hashtbl.copy m.far; s_brk = m.brk }

let mem_restore (m : memory) (s : mem_snapshot) : unit =
  m.pages <- copy_pages s.s_pages;
  m.far <- Hashtbl.copy s.s_far;
  m.brk <- s.s_brk

let mem_cells (m : memory) : (int * int) list =
  let cells = Hashtbl.fold (fun a v acc -> if v <> 0 then (a, v) :: acc else acc) m.far [] in
  let cells = ref cells in
  Array.iteri
    (fun p page ->
      if page != zero_page then
        Array.iteri
          (fun k v -> if v <> 0 then cells := ((p lsl page_bits) lor k, v) :: !cells)
          page)
    m.pages;
  List.sort compare !cells

type frame = (Ir.reg, int) Hashtbl.t

type status = Running | Returned of int | Trapped of trap

type machine = {
  func : Ir.func;
  frame : frame;
  memory : memory;
  mutable cur_block : Ir.block;
  mutable cur_body : Ir.instr array;
      (** [cur_block.body] as an array, cached in [bodies] — stepping must
          not pay [List.nth] per instruction *)
  mutable idx : int;  (** index into [cur_body]; φ-nodes execute on entry *)
  mutable status : status;
  mutable steps : int;
  mutable fuel_stop : int;
      (** absolute [steps] value at which the machine traps
          ([Fuel_exhausted]); [max_int] means unlimited.  Stored as a stop
          line rather than a countdown so the hot path pays one compare
          against the already-maintained step counter and no extra store.
          Exhaustion is a trap, not an exception — adversarial corpus
          programs terminate like any other failing run.  Use
          [fuel_left]/[set_fuel] rather than touching this directly. *)
  mutable events : event list;  (** reversed *)
  bodies : (string, Ir.instr array) Hashtbl.t;  (** per-block body cache *)
  blocks : (string, Ir.block) Hashtbl.t;
      (** label → block, first occurrence (the [find_block] semantics) *)
  tel : Telemetry.sink;
}

(* VM statistics (`--stats`): executed steps, observable events, completed
   and aborted activations.  A disabled sink reduces each bump to one
   branch, keeping the step loop at full speed. *)
let stat_steps = Telemetry.counter ~group:"interp" "steps" ~desc:"instructions executed"

let stat_events =
  Telemetry.counter ~group:"interp" "events" ~desc:"observable intrinsic calls"

let stat_returns = Telemetry.counter ~group:"interp" "returns" ~desc:"activations returned"
let stat_traps = Telemetry.counter ~group:"interp" "traps" ~desc:"activations trapped"

exception Trap of trap

let read (m : machine) ~(at : int) (v : Ir.value) : int =
  match v with
  | Ir.Const n -> n
  | Ir.Undef -> raise (Trap (Undef_read at))
  | Ir.Reg r -> (
      match Hashtbl.find_opt m.frame r with
      | Some n -> n
      | None -> raise (Trap (Undef_read at)))

let body_array (m : machine) (b : Ir.block) : Ir.instr array =
  match Hashtbl.find_opt m.bodies b.label with
  | Some a -> a
  | None ->
      let a = Array.of_list b.body in
      Hashtbl.add m.bodies b.label a;
      a

(* Execute the φ-nodes of [target] for an entry from [pred]: all read the
   old frame, then all write (simultaneous assignment). *)
let enter_block (m : machine) ~(pred : string) (target : Ir.block) : unit =
  let values =
    List.map
      (fun (i : Ir.instr) ->
        match i.rhs with
        | Ir.Phi incoming -> (
            match List.assoc_opt pred incoming with
            | Some Ir.Undef ->
                (* An undef incoming poisons the φ result lazily: the value
                   only traps if actually read later (LLVM-style). *)
                (i.result, None)
            | Some v -> (i.result, Some (read m ~at:i.id v))
            | None -> raise (Trap (Undef_read i.id)))
        | _ -> raise (Trap (Undef_read i.id)))
      target.phis
  in
  List.iter
    (fun (res, v) ->
      match (res, v) with
      | Some r, Some v -> Hashtbl.replace m.frame r v
      | Some r, None -> Hashtbl.remove m.frame r
      | None, _ -> ())
    values;
  m.cur_block <- target;
  m.cur_body <- body_array m target;
  m.idx <- 0

let exec_intrinsic (m : machine) ~(at : int) (name : string) (args : int list) : int =
  if Ir.is_pure_call name then
    match Passes.Fold.eval_intrinsic name args with
    | Some v -> v
    | None -> raise (Trap (Unknown_intrinsic (name, at)))
  else
    match name with
    | "print" | "emit" | "checkpoint" ->
        Telemetry.bump m.tel stat_events;
        m.events <- { callee = name; arg_values = args } :: m.events;
        0
    | "read_seed" -> (
        (* Deterministic "input": derived from the first argument. *)
        match args with [ a ] -> (a * 48271) land 0xFFFF | _ -> raise (Trap (Bad_arity name)))
    | _ -> raise (Trap (Unknown_intrinsic (name, at)))

let binop_trap (op : Ir.binop) (at : int) : trap =
  match op with
  | Ir.Shl | Ir.Lshr | Ir.Ashr -> Shift_out_of_range at
  | Ir.Sdiv | Ir.Srem | Ir.Add | Ir.Sub | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> Division_by_zero at

let exec_rhs (m : machine) (i : Ir.instr) : int option =
  match i.rhs with
  | Ir.Binop (op, a, b) -> (
      let x = read m ~at:i.id a and y = read m ~at:i.id b in
      match Passes.Fold.binop op x y with
      | v -> Some v
      | exception Passes.Fold.Undefined -> raise (Trap (binop_trap op i.id)))
  | Ir.Icmp (op, a, b) ->
      Some (Passes.Fold.eval_icmp op (read m ~at:i.id a) (read m ~at:i.id b))
  | Ir.Select (c, t, e) ->
      (* Both arms are evaluated eagerly, consistent with select's
         non-short-circuiting semantics. *)
      let cv = read m ~at:i.id c in
      let tv = read m ~at:i.id t and ev = read m ~at:i.id e in
      Some (if cv <> 0 then tv else ev)
  | Ir.Alloca n -> Some (mem_alloca m.memory n)
  | Ir.Load a -> Some (mem_load m.memory (read m ~at:i.id a))
  | Ir.Store (v, a) ->
      mem_store m.memory (read m ~at:i.id a) (read m ~at:i.id v);
      None
  | Ir.Call (name, args) -> Some (exec_intrinsic m ~at:i.id name (List.map (read m ~at:i.id) args))
  | Ir.Phi _ -> raise (Trap (Undef_read i.id))  (* φ executes at block entry *)

(** One instruction (or terminator) step. *)
let step (m : machine) : status =
  match m.status with
  | Returned _ | Trapped _ -> m.status
  | Running when m.steps >= m.fuel_stop ->
      m.status <- Trapped (Fuel_exhausted m.steps);
      Telemetry.bump m.tel stat_traps;
      m.status
  | Running -> (
      m.steps <- m.steps + 1;
      Telemetry.bump m.tel stat_steps;
      try
        if m.idx < Array.length m.cur_body then begin
          let i = m.cur_body.(m.idx) in
          (match (exec_rhs m i, i.result) with
          | Some v, Some r -> Hashtbl.replace m.frame r v
          | Some _, None | None, None -> ()
          | None, Some r -> Hashtbl.replace m.frame r 0);
          m.idx <- m.idx + 1;
          Running
        end
        else begin
          (match m.cur_block.term with
          | Ir.Br l -> (
              match Hashtbl.find_opt m.blocks l with
              | Some b -> enter_block m ~pred:m.cur_block.label b
              | None -> raise (Trap (No_such_block l)))
          | Ir.Cbr (c, t, e) -> (
              let l = if read m ~at:m.cur_block.term_id c <> 0 then t else e in
              match Hashtbl.find_opt m.blocks l with
              | Some b -> enter_block m ~pred:m.cur_block.label b
              | None -> raise (Trap (No_such_block l)))
          | Ir.Ret v ->
              m.status <- Returned (read m ~at:m.cur_block.term_id v);
              Telemetry.bump m.tel stat_returns
          | Ir.Unreachable -> raise (Trap (Unreachable_reached m.cur_block.label)));
          m.status
        end
      with Trap t ->
        m.status <- Trapped t;
        Telemetry.bump m.tel stat_traps;
        m.status)

(** The id of the instruction (or terminator) the machine will execute
    next — the machine's current program point — or [-1] once it has
    stopped.  Allocates nothing: the run loops ask it every step. *)
let current_point (m : machine) : int =
  match m.status with
  | Returned _ | Trapped _ -> -1
  | Running ->
      if m.idx < Array.length m.cur_body then m.cur_body.(m.idx).id else m.cur_block.term_id

(** {!current_point} as an option: [None] once the machine has stopped. *)
let next_instr_id (m : machine) : int option =
  match current_point m with -1 -> None | id -> Some id

let create ?(memory : memory option) ?(telemetry = Telemetry.null) ?(fuel = max_int)
    (f : Ir.func) ~(args : int list) : machine =
  if List.length args <> List.length f.params then raise (Trap (Bad_arity f.fname));
  let frame = Hashtbl.create 32 in
  List.iter2 (fun p a -> Hashtbl.replace frame p a) f.params args;
  let entry = Ir.entry f in
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) -> if not (Hashtbl.mem blocks b.label) then Hashtbl.add blocks b.label b)
    f.blocks;
  let m =
    {
      func = f;
      frame;
      memory = (match memory with Some m -> m | None -> fresh_memory ());
      cur_block = entry;
      cur_body = [||];
      idx = 0;
      status = Running;
      steps = 0;
      fuel_stop = fuel;
      events = [];
      bodies = Hashtbl.create 16;
      blocks;
      tel = telemetry;
    }
  in
  m.cur_body <- body_array m entry;
  m

(** Remaining step budget ([max_int] = unlimited). *)
let fuel_left (m : machine) : int =
  if m.fuel_stop = max_int then max_int else m.fuel_stop - m.steps

(** Grant [n] further steps from the machine's current position. *)
let set_fuel (m : machine) (n : int) : unit =
  m.fuel_stop <- (if n >= max_int - m.steps then max_int else m.steps + n)

(** The step core both engines expose: enough to pause, resume and observe
    a machine.  {!Run} derives every whole-run driver from it, so the
    reference interpreter and the compiled engine share one run loop. *)
module type STEP = sig
  type machine

  val create :
    ?memory:memory -> ?telemetry:Telemetry.sink -> ?fuel:int -> Ir.func -> args:int list -> machine

  val step : machine -> status
  val current_point : machine -> int
  val next_instr_id : machine -> int option
  val steps : machine -> int
  val fuel : machine -> int
  val set_fuel : machine -> int -> unit
  val events_rev : machine -> event list
end

module type RUN = sig
  type machine

  val run_machine : ?fuel:int -> machine -> (outcome, trap) result

  val run :
    ?fuel:int ->
    ?memory:memory ->
    ?telemetry:Telemetry.sink ->
    Ir.func ->
    args:int list ->
    (outcome, trap) result

  val run_to_point : ?fuel:int -> ?skip:int -> machine -> point:int -> machine option
  val run_to_armed : machine -> armed:Bytes.t -> int
end

module Run (M : STEP) : RUN with type machine := M.machine = struct
  (* The clamp goes through the engine's [set_fuel], which saturates: a
     huge [fuel] on a machine that has already run must not overflow the
     stop line. *)
  let run_machine ?(fuel = 10_000_000) (m : M.machine) : (outcome, trap) result =
    if M.fuel m > fuel then M.set_fuel m fuel;
    let rec go () =
      match M.step m with
      | Running -> go ()
      | Returned ret -> Ok { ret; events = List.rev (M.events_rev m); steps = M.steps m }
      | Trapped t -> Error t
    in
    go ()

  let run ?fuel ?memory ?telemetry (f : Ir.func) ~(args : int list) : (outcome, trap) result =
    match M.create ?memory ?telemetry f ~args with
    | m -> run_machine ?fuel m
    | exception Trap t -> Error t

  let run_to_point ?(fuel = 10_000_000) ?(skip = 0) (m : M.machine) ~(point : int) :
      M.machine option =
    let rec go budget remaining =
      if budget = 0 then None
      else
        match M.current_point m with
        | -1 -> None
        | id when id = point ->
            if remaining = 0 then Some m
            else begin
              ignore (M.step m : status);
              go (budget - 1) (remaining - 1)
            end
        | _ -> (
            match M.step m with
            | Running -> go (budget - 1) remaining
            | Returned _ | Trapped _ -> None)
    in
    go fuel skip

  let run_to_armed (m : M.machine) ~(armed : Bytes.t) : int =
    let n = Bytes.length armed in
    let rec go () =
      match M.current_point m with
      | -1 -> -1
      | id when id >= 0 && id < n && Bytes.get armed id <> '\000' -> id
      | _ -> ( match M.step m with Running -> go () | Returned _ | Trapped _ -> -1)
    in
    go ()
end

include Run (struct
  type nonrec machine = machine

  let create = create
  let step = step
  let current_point = current_point
  let next_instr_id = next_instr_id
  let steps (m : machine) = m.steps
  let fuel = fuel_left
  let set_fuel = set_fuel
  let events_rev (m : machine) = m.events
end)

(** Observable equality of results: equal returns and equal event traces,
    or both trapped (any trap ≈ any trap). *)
let equal_result (a : (outcome, trap) result) (b : (outcome, trap) result) : bool =
  match (a, b) with
  | Ok x, Ok y -> x.ret = y.ret && List.equal equal_event x.events y.events
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

let pp_result ppf = function
  | Ok o -> Fmt.pf ppf "ret %d (%d steps, %d events)" o.ret o.steps (List.length o.events)
  | Error t -> Fmt.pf ppf "trap: %a" pp_trap t
