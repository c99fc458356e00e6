(** Execution engines for TinyVM.

    {!module-type:S} is the step-wise machine API the OSR layer depends
    on: create at entry, step one program point at a time, pause anywhere,
    observe the current point via [current_point] ([next_instr_id] as an
    option), and read/write the frame
    by register name.  Two implementations:

    - {!Reference}: the original tree-walking {!Interp}, wrapped unchanged
      — the semantic oracle the differential tests hold the compiled
      engine to;
    - {!Compiled}: a tight dispatch loop over {!Compile.program} — numbered
      frame slots, int operands, pre-resolved branches, φ-nodes as
      per-edge parallel moves — the production engine.

    [of_cached] creates a machine for a function that is run many times,
    such as an OSR continuation: the compiled engine compiles it on the
    first call only and reuses the program ({!Compile.cached}); the
    reference engine runs the source and never compiles it.

    Each engine supplies only its step core; [run_machine], [run],
    [run_to_point] and [run_to_armed] come from the one loop in
    {!Interp.Run}.  Both produce
    byte-identical observables: same [outcome] (return value,
    event trace, step count), same traps with the same payloads, and the
    same sequence of [current_point] values, so OSR transitions and the
    differential tests run on either engine interchangeably. *)

module Ir = Miniir.Ir

(** The step-wise machine API common to both engines: the step core
    ({!Interp.STEP}), frame access by register name, and the whole-run
    drivers, which both engines derive from the one loop in {!Interp.Run}. *)
module type S = sig
  val name : string

  include Interp.STEP
  (** [create] shares [memory] when given (how OSR transitions keep the
      store invariant); [step] runs φ-moves on the taken edge, within the
      branch's step. *)

  val of_cached :
    ?memory:Interp.memory ->
    ?telemetry:Telemetry.sink ->
    ?fuel:int ->
    Compile.cached ->
    args:int list ->
    machine
  (** [create] on a cached function: the compiled engine compiles it the
      first time only ({!Compile.force}), the reference engine runs its
      source and never compiles it. *)

  val status : machine -> Interp.status
  val func : machine -> Ir.func
  val memory : machine -> Interp.memory
  val telemetry : machine -> Telemetry.sink

  val read_reg : machine -> Ir.reg -> int option
  (** [None] when the register is currently undefined (or unknown). *)

  val write_reg : machine -> Ir.reg -> int -> unit
  (** @raise Osr_error.Error ([Unknown_register]) when the engine has no
      storage for the register *)

  val clear_reg : machine -> Ir.reg -> unit
  (** Make the register read as undefined (fault injection / frame
      surgery). *)

  include Interp.RUN with type machine := machine
end

(* ------------------------------------------------------------------ *)
(* Reference engine: the tree-walking interpreter, unchanged            *)
(* ------------------------------------------------------------------ *)

module Reference : S with type machine = Interp.machine = struct
  let name = "ref"

  type machine = Interp.machine

  let create = Interp.create

  let of_cached ?memory ?telemetry ?fuel (c : Compile.cached) ~args =
    Interp.create ?memory ?telemetry ?fuel c.Compile.source ~args

  let step = Interp.step
  let status (m : machine) = m.Interp.status
  let current_point = Interp.current_point
  let next_instr_id = Interp.next_instr_id
  let func (m : machine) = m.Interp.func
  let memory (m : machine) = m.Interp.memory
  let telemetry (m : machine) = m.Interp.tel
  let steps (m : machine) = m.Interp.steps
  let fuel = Interp.fuel_left
  let set_fuel = Interp.set_fuel
  let events_rev (m : machine) = m.Interp.events
  let read_reg (m : machine) (r : Ir.reg) = Hashtbl.find_opt m.Interp.frame r
  let write_reg (m : machine) (r : Ir.reg) (v : int) = Hashtbl.replace m.Interp.frame r v
  let clear_reg (m : machine) (r : Ir.reg) = Hashtbl.remove m.Interp.frame r

  include (Interp : Interp.RUN with type machine := machine)
end

(* ------------------------------------------------------------------ *)
(* Compiled engine: dispatch over the flat program                      *)
(* ------------------------------------------------------------------ *)

module Compiled = struct
  let name = "compiled"

  open Compile

  type machine = {
    prog : program;
    code : op array;  (** [prog]'s arrays, one indirection closer *)
    ids : int array;
    consts : int array;
    edges : int array;
    frame : int array;
    defined : bool array;
    memory : Interp.memory;
    mutable pc : int;
    mutable status : Interp.status;
    mutable steps : int;
    mutable fuel_stop : int;
        (** absolute [steps] value at which execution traps; [max_int] =
            unlimited (stop line, not countdown — see [Interp.fuel_stop]) *)
    mutable events : Interp.event list;  (** reversed *)
    tel : Telemetry.sink;
    scratch : int array;  (** φ-move read buffer (overlapping edges) *)
    scratch_def : bool array;
  }

  let of_program ?memory ?(telemetry = Telemetry.null) ?(fuel = max_int) (p : program)
      ~(args : int list) : machine =
    if List.length args <> List.length p.func.Ir.params then
      raise (Interp.Trap (Bad_arity p.func.Ir.fname));
    let nslots = max 1 (Array.length p.regs) in
    let frame = Array.make nslots 0 in
    let defined = Array.make nslots false in
    List.iteri
      (fun i a ->
        frame.(p.param_slots.(i)) <- a;
        defined.(p.param_slots.(i)) <- true)
      args;
    {
      prog = p;
      code = p.code;
      ids = p.ids;
      consts = p.consts;
      edges = p.edges;
      frame;
      defined;
      memory = (match memory with Some m -> m | None -> Interp.fresh_memory ());
      pc = 0;
      status = Running;
      steps = 0;
      fuel_stop = fuel;
      events = [];
      tel = telemetry;
      scratch = Array.make (max 1 p.max_moves) 0;
      scratch_def = Array.make (max 1 p.max_moves) false;
    }

  let create ?memory ?telemetry ?fuel (f : Ir.func) ~(args : int list) : machine =
    if List.length args <> List.length f.Ir.params then
      raise (Interp.Trap (Bad_arity f.Ir.fname));
    of_program ?memory ?telemetry ?fuel (compile ?telemetry f) ~args

  let of_cached ?memory ?telemetry ?fuel (c : cached) ~(args : int list) : machine =
    if List.length args <> List.length c.source.Ir.params then
      raise (Interp.Trap (Bad_arity c.source.Ir.fname));
    of_program ?memory ?telemetry ?fuel (force ?telemetry c) ~args

  let[@inline] read (m : machine) ~(at : int) (o : operand) : int =
    if o >= 0 then
      if m.defined.(o) then m.frame.(o) else raise (Interp.Trap (Undef_read at))
    else if o = undef then raise (Interp.Trap (Undef_read at))
    else m.consts.(-2 - o)

  let[@inline] write (m : machine) (dst : int) (v : int) : unit =
    if dst >= 0 then begin
      m.frame.(dst) <- v;
      m.defined.(dst) <- true
    end

  (* The edge record at [o] (see {!Compile.jump}).  The reference reads
     every φ source first (trapping in φ order), then writes all
     destinations.  Without source/destination overlap a single in-order
     pass is equivalent on every non-trapping run (a post-trap frame is
     unobservable); with overlap — swaps, cycles, permutations — the read
     phase goes through the scratch buffer. *)
  let take_edge (m : machine) (o : int) : unit =
    let e = m.edges in
    let target = e.(o) in
    if target < 0 then raise (Interp.Trap (No_such_block m.prog.labels.(-1 - target)));
    let n = e.(o + 1) in
    if e.(o + 3) = 0 then
      for j = 0 to n - 1 do
        let k = o + edge_header + (3 * j) in
        let d = e.(k) and s = e.(k + 1) in
        if s >= 0 then
          if m.defined.(s) then write m d m.frame.(s)
          else raise (Interp.Trap (Undef_read e.(k + 2)))
        else if s = undef then (if d >= 0 then m.defined.(d) <- false)
        else write m d m.consts.(-2 - s)
      done
    else begin
      for j = 0 to n - 1 do
        let k = o + edge_header + (3 * j) in
        let s = e.(k + 1) in
        if s >= 0 then
          if m.defined.(s) then begin
            m.scratch.(j) <- m.frame.(s);
            m.scratch_def.(j) <- true
          end
          else raise (Interp.Trap (Undef_read e.(k + 2)))
        else if s = undef then m.scratch_def.(j) <- false
        else begin
          m.scratch.(j) <- m.consts.(-2 - s);
          m.scratch_def.(j) <- true
        end
      done;
      for j = 0 to n - 1 do
        let d = e.(o + edge_header + (3 * j)) in
        if d >= 0 then
          if m.scratch_def.(j) then begin
            m.frame.(d) <- m.scratch.(j);
            m.defined.(d) <- true
          end
          else m.defined.(d) <- false
      done
    end;
    let bad = e.(o + 2) in
    if bad >= 0 then raise (Interp.Trap (Undef_read bad));
    m.pc <- target

  let[@inline] take_jump (m : machine) (j : jump) : unit =
    if j >= 0 then m.pc <- j else take_edge m (-1 - j)

  let exec_intrinsic_args (m : machine) ~(at : int) (ops : operand array) : int list =
    Array.fold_right (fun o acc -> read m ~at o :: acc) ops []

  let step (m : machine) : Interp.status =
    match m.status with
    | (Returned _ | Trapped _) as s -> s
    | Running when m.steps >= m.fuel_stop ->
        m.status <- Trapped (Fuel_exhausted m.steps);
        Telemetry.bump m.tel Interp.stat_traps;
        m.status
    | Running -> (
        m.steps <- m.steps + 1;
        Telemetry.bump m.tel Interp.stat_steps;
        let pc = m.pc in
        let at = m.ids.(pc) in
        try
          (match m.code.(pc) with
          | Obinop (dst, op, a, b) ->
              let x = read m ~at a and y = read m ~at b in
              (match Passes.Fold.eval_binop op x y with
              | Some v -> write m dst v
              | None -> raise (Interp.Trap (Interp.binop_trap op at)));
              m.pc <- pc + 1
          | Oicmp (dst, op, a, b) ->
              let x = read m ~at a and y = read m ~at b in
              write m dst (Passes.Fold.eval_icmp op x y);
              m.pc <- pc + 1
          | Oselect (dst, c, t, e) ->
              let cv = read m ~at c in
              let tv = read m ~at t and ev = read m ~at e in
              write m dst (if cv <> 0 then tv else ev);
              m.pc <- pc + 1
          | Oalloca (dst, n) ->
              let addr = m.memory.Interp.brk in
              m.memory.Interp.brk <- addr + max 1 n;
              write m dst addr;
              m.pc <- pc + 1
          | Oload (dst, a) ->
              write m dst (Interp.mem_load m.memory (read m ~at a));
              m.pc <- pc + 1
          | Ostore (dst, v, a) ->
              Interp.mem_store m.memory (read m ~at a) (read m ~at v);
              (* the reference writes 0 to a (malformed) store result *)
              write m dst 0;
              m.pc <- pc + 1
          | Ocall_pure (dst, name, ops) ->
              let args = exec_intrinsic_args m ~at ops in
              (match Passes.Fold.eval_intrinsic name args with
              | Some v -> write m dst v
              | None -> raise (Interp.Trap (Unknown_intrinsic (name, at))));
              m.pc <- pc + 1
          | Ocall_event (dst, name, ops) ->
              let args = exec_intrinsic_args m ~at ops in
              Telemetry.bump m.tel Interp.stat_events;
              m.events <- { Interp.callee = name; arg_values = args } :: m.events;
              write m dst 0;
              m.pc <- pc + 1
          | Ocall_seed (dst, a) ->
              write m dst (read m ~at a * 48271 land 0xFFFF);
              m.pc <- pc + 1
          | Ocall_bad_arity (name, ops) ->
              ignore (exec_intrinsic_args m ~at ops : int list);
              raise (Interp.Trap (Bad_arity name))
          | Ocall_unknown (name, ops) ->
              ignore (exec_intrinsic_args m ~at ops : int list);
              raise (Interp.Trap (Unknown_intrinsic (name, at)))
          | Otrap_undef -> raise (Interp.Trap (Undef_read at))
          | Obr j -> take_jump m j
          | Ocbr (c, t, e) -> take_jump m (if read m ~at c <> 0 then t else e)
          | Oret v ->
              m.status <- Returned (read m ~at v);
              Telemetry.bump m.tel Interp.stat_returns
          | Ounreachable l -> raise (Interp.Trap (Unreachable_reached l)));
          m.status
        with Interp.Trap t ->
          m.status <- Trapped t;
          Telemetry.bump m.tel Interp.stat_traps;
          m.status)

  let status (m : machine) = m.status

  let current_point (m : machine) : int =
    match m.status with Returned _ | Trapped _ -> -1 | Running -> m.ids.(m.pc)

  let next_instr_id (m : machine) : int option =
    match current_point m with -1 -> None | id -> Some id

  let func (m : machine) = m.prog.func
  let memory (m : machine) = m.memory
  let telemetry (m : machine) = m.tel
  let steps (m : machine) = m.steps
  let fuel (m : machine) =
    if m.fuel_stop = max_int then max_int else m.fuel_stop - m.steps

  let set_fuel (m : machine) n =
    m.fuel_stop <- (if n >= max_int - m.steps then max_int else m.steps + n)
  let events_rev (m : machine) = m.events

  (* Frame access by name: a bisection of the program's sorted register
     names. *)
  let read_reg (m : machine) (r : Ir.reg) : int option =
    let k = Compile.slot m.prog r in
    if k >= 0 && m.defined.(k) then Some m.frame.(k) else None

  let write_reg (m : machine) (r : Ir.reg) (v : int) : unit =
    let k = Compile.slot m.prog r in
    if k >= 0 then begin
      m.frame.(k) <- v;
      m.defined.(k) <- true
    end
    else
      raise
        (Osr_error.Error (Osr_error.Unknown_register { func = m.prog.func.Ir.fname; reg = r }))

  let clear_reg (m : machine) (r : Ir.reg) : unit =
    let k = Compile.slot m.prog r in
    if k >= 0 then m.defined.(k) <- false

  include Interp.Run (struct
    type nonrec machine = machine

    let create = create
    let step = step
    let current_point = current_point
    let next_instr_id = next_instr_id
    let steps = steps
    let fuel = fuel
    let set_fuel = set_fuel
    let events_rev = events_rev
  end)
end

(* The Compiled struct must satisfy the engine signature (checked here;
   the module itself stays unconstrained so [of_program]/[Compile] extras
   remain visible). *)
module Compiled_checked : S = Compiled

(** Engines by CLI name. *)
let of_name : string -> (module S) option = function
  | "ref" | "reference" -> Some (module Reference)
  | "compiled" -> Some (module Compiled)
  | _ -> None

let of_name_exn (name : string) : (module S) =
  match of_name name with
  | Some e -> e
  | None ->
      raise (Osr_error.Error (Osr_error.Engine_mismatch { expected = "ref|compiled"; got = name }))

let all : (module S) list = [ (module Reference); (module Compiled) ]
