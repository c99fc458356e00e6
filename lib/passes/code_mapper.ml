open Import

(** The CodeMapper: an append-only log of the five primitive
    IR-manipulation actions of Section 5.1, recorded while the passes
    transform a cloned function:

    {ol
    {- [add(inst, loc)] — a new instruction was inserted}
    {- [delete(loc)] — an instruction was removed}
    {- [hoist(loc, newLoc)] — an instruction moved against the CFG order}
    {- [sink(loc, newLoc)] — an instruction moved along the CFG order}
    {- [replace(oldOp, newOp, \[inst\])] — operand uses rewritten}}

    Because clones preserve instruction ids and register names, the mapping
    between program points and variables of the two versions (the Δ and the
    value map of Section 4.2/5.1) falls out of this history.  The log keeps
    no derived state: the OSR layer replays a finished log once into an
    {!index} and asks its queries there.

    {!replace_all_uses} is the one whole-function use substitution of the
    passes: it records the action and rewrites the function in one call,
    rebuilding only the rhs and terminators that read the old value. *)

type action =
  | Add of { id : int; block : string }
  | Delete of { id : int }
  | Hoist of { id : int; from_block : string; to_block : string }
  | Sink of { id : int; from_block : string; to_block : string }
  | Replace of { old_value : Ir.value; new_value : Ir.value; inst : int option }
      (** [inst = None] means all uses were rewritten *)

(* Statistics for Table 1/2 consumers and `--stats`: one counter per
   primitive action kind (the LLVM Statistic analogue). *)
let stat_add = Telemetry.counter ~group:"mapper" "add" ~desc:"instructions inserted"
let stat_delete = Telemetry.counter ~group:"mapper" "delete" ~desc:"instructions removed"

let stat_hoist =
  Telemetry.counter ~group:"mapper" "hoist" ~desc:"instructions moved against CFG order"

let stat_sink =
  Telemetry.counter ~group:"mapper" "sink" ~desc:"instructions moved along CFG order"

let stat_replace = Telemetry.counter ~group:"mapper" "replace" ~desc:"operand uses rewritten"

type t = {
  tel : Telemetry.sink;  (** where action statistics and pass remarks go *)
  mutable actions : action list;  (** most recent first *)
}

let create ?(telemetry = Telemetry.null) () : t = { tel = telemetry; actions = [] }
let record (m : t) (a : action) : unit = m.actions <- a :: m.actions

(** The sink this mapper reports to — how passes, which already receive the
    mapper, reach telemetry without a signature change. *)
let telemetry (m : t) : Telemetry.sink = m.tel

(* --- recording API used by the passes ------------------------------- *)

let add_instr (m : t) (i : Ir.instr) ~(block : string) : unit =
  Telemetry.bump m.tel stat_add;
  record m (Add { id = i.id; block })

let delete_instr (m : t) (i : Ir.instr) : unit =
  Telemetry.bump m.tel stat_delete;
  record m (Delete { id = i.id })

let hoist_instr (m : t) (i : Ir.instr) ~(from_block : string) ~(to_block : string) : unit =
  Telemetry.bump m.tel stat_hoist;
  record m (Hoist { id = i.id; from_block; to_block })

let sink_instr (m : t) (i : Ir.instr) ~(from_block : string) ~(to_block : string) : unit =
  Telemetry.bump m.tel stat_sink;
  record m (Sink { id = i.id; from_block; to_block })

(** Rewrite every use of [old_value] in [f] — instruction operands and
    terminators alike — to [new_value], and record the replace.  Only an
    rhs or terminator that reads [old_value] is rebuilt. *)
let replace_all_uses (m : t) (f : Ir.func) ~(old_value : Ir.value) ~(new_value : Ir.value) :
    unit =
  Telemetry.bump m.tel stat_replace;
  record m (Replace { old_value; new_value; inst = None });
  let is_old v = Ir.equal_value v old_value in
  let subst v = if is_old v then new_value else v in
  let rewrite (j : Ir.instr) =
    if Ir.exists_rhs_operand is_old j.rhs then j.rhs <- Ir.map_rhs_operands subst j.rhs
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter rewrite b.phis;
      List.iter rewrite b.body;
      if Ir.exists_term_operand is_old b.term then b.term <- Ir.map_term_operands subst b.term)
    f.blocks

(** Record that the caller rewrote the uses in one instruction. *)
let replace_use_in (m : t) ~(inst : Ir.instr) ~(old_value : Ir.value) ~(new_value : Ir.value) :
    unit =
  Telemetry.bump m.tel stat_replace;
  record m (Replace { old_value; new_value; inst = Some inst.id })

let actions_in_order (m : t) : action list = List.rev m.actions

(* --- transactional snapshots (pass-pipeline sandboxing) -------------- *)

(** A point in the history: the log as it stood.  The log only grows by
    consing, so the head is the whole state. *)
type snapshot = action list

let snapshot (m : t) : snapshot = m.actions

(** Roll the mapper back to [s]: the actions a misbehaving pass recorded
    after the snapshot disappear from the history. *)
let restore (m : t) (s : snapshot) : unit = m.actions <- s

(* --- action counts (Tables 1 and 2) ---------------------------------- *)

type counts = { add : int; delete : int; hoist : int; sink : int; replace : int }

let tally (c : counts) : action -> counts = function
  | Add _ -> { c with add = c.add + 1 }
  | Delete _ -> { c with delete = c.delete + 1 }
  | Hoist _ -> { c with hoist = c.hoist + 1 }
  | Sink _ -> { c with sink = c.sink + 1 }
  | Replace _ -> { c with replace = c.replace + 1 }

let zero_counts = { add = 0; delete = 0; hoist = 0; sink = 0; replace = 0 }

(** Count of each primitive action kind over the whole history. *)
let counts (m : t) : counts = List.fold_left tally zero_counts m.actions

(** Count of each kind over the actions recorded after [s] only. *)
let counts_since (m : t) (s : snapshot) : counts =
  let rec go c l =
    if l == s then c else match l with [] -> c | a :: rest -> go (tally c a) rest
  in
  go zero_counts m.actions

(* --- the query index the OSR layer builds once ------------------------ *)

(** What the OSR layer asks of a finished history, from one replay of the
    log in recording order. *)
type index = {
  moved : (int, unit) Hashtbl.t;  (** ids hoisted or sunk between blocks *)
  repl : (Ir.reg, Ir.value) Hashtbl.t;
      (** base register → the value its last all-uses replace put in its
          place; chains are resolved at query time *)
  aliases : (Ir.reg, Ir.reg list) Hashtbl.t;  (** see {!alias_inverse} *)
}

(** Resolve the replacement chain of a base-side register: the value that
    holds it in the optimized version ([None] if it was never replaced).
    CSE chains (a → b, b → c) resolve to the final survivor. *)
let resolve_replacement (ix : index) (r : Ir.reg) : Ir.value option =
  let rec follow v depth =
    if depth = 0 then v
    else
      match v with
      | Ir.Reg r' -> (
          match Hashtbl.find_opt ix.repl r' with
          | Some v' -> follow v' (depth - 1)
          | None -> v)
      | Ir.Const _ | Ir.Undef -> v
  in
  match Hashtbl.find_opt ix.repl r with Some v -> Some (follow v 64) | None -> None

(** The inverse of the resolved replacement chains: surviving register →
    the base registers that collapsed onto it (CSE kept it, deleted them)
    — the implicit aliasing information captured from replace actions
    (Section 5.4). *)
let alias_inverse (ix : index) : (Ir.reg, Ir.reg list) Hashtbl.t = ix.aliases

let is_moved (ix : index) (id : int) : bool = Hashtbl.mem ix.moved id

(** Replay the log into its {!index}.  Call it once the history no longer
    grows; the OSR context does, at construction. *)
let index (m : t) : index =
  let moved = Hashtbl.create 16 and repl = Hashtbl.create 32 in
  List.iter
    (function
      | Hoist { id; _ } | Sink { id; _ } -> Hashtbl.replace moved id ()
      | Replace { old_value = Ir.Reg r; new_value; inst = None } ->
          Hashtbl.replace repl r new_value
      | Add _ | Delete _ | Replace _ -> ())
    (actions_in_order m);
  let ix = { moved; repl; aliases = Hashtbl.create (max 16 (Hashtbl.length repl)) } in
  Hashtbl.iter
    (fun old _ ->
      match resolve_replacement ix old with
      | Some (Ir.Reg r') when not (String.equal old r') ->
          Hashtbl.replace ix.aliases r'
            (old :: Option.value ~default:[] (Hashtbl.find_opt ix.aliases r'))
      | _ -> ())
    repl;
  ix
