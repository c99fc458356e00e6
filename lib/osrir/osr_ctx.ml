open Import

(** Shared context for IR-level OSR mapping construction between a base
    function and its optimized clone: direction handling, point
    correspondence (the Δ of Section 4.2), and value correspondence derived
    from the CodeMapper's action history (Section 5.1).

    Performance architecture: each side carries a {!Func_index.t} — an
    immutable snapshot index of its function — and every side analysis
    (dominators, liveness, loops, the loops containing each block) is
    derived from that index exactly once in {!make_side}; positions,
    definition sites and block ownership are the index's own tables.  The
    context also builds, once, the cross-point tables that make the
    per-point feasibility sweep near-linear: the landing point of every
    source point ({!Ir.first_kept_at_or_after}), the mapper's query index,
    and the interned candidate list of every destination register.
    Nothing is written after {!make} or {!make_pair} returns, so one
    context serves any number of domains at once; reuse within one point
    lives in the per-point state of {!Reconstruct_ir}. *)

type direction = Base_to_opt | Opt_to_base

(** When is an interned candidate available in the source frame? *)
type avail_key =
  | Always  (** constants and parameters *)
  | Never  (** [Undef] or not part of the source frame *)
  | At of { block : string; idx : int; rpo : int }
      (** definition site: block label, position inside the block, and the
          block's reverse-postorder index ([-1] when unreachable) *)

(** A source candidate with its availability and liveness keys resolved
    once: testing it against a program point is then pure array and bit
    work — no hashing, no table lookups. *)
type cand = {
  cv : Ir.value;
  akey : avail_key;
  live_id : int;  (** interned liveness id; [-1] = always live (constants) *)
}

(** Resolved query environment of one source program point (the point's
    block coordinates and live-before bitset), computed once per point. *)
type penv = {
  pe_block : string;
  pe_idx : int;
  pe_rpo : int;  (** rpo of the block; [-1] unreachable, [-2] unknown point *)
  pe_bits : Liveness.Bits.t option;
}

type side = {
  func : Ir.func;
  index : Func_index.t;
  dom : Dom.t;
  live : Liveness.t;
  loops : Loops.t;
  loop_ids : (string, int list) Hashtbl.t;
      (** block label → ascending ids (positions in [loops]) of the natural
          loops containing the block; absent when it is in none *)
}

let make_side (f : Ir.func) : side =
  let index = Func_index.make f in
  let dom = Dom.compute ~index f in
  let loops = Loops.compute ~index ~dom f in
  let loop_ids = Hashtbl.create 16 in
  List.iteri
    (fun k (l : Loops.loop) ->
      List.iter
        (fun b ->
          Hashtbl.replace loop_ids b (k :: Option.value ~default:[] (Hashtbl.find_opt loop_ids b)))
        l.body)
    loops.loops;
  Hashtbl.filter_map_inplace (fun _ ks -> Some (List.rev ks)) loop_ids;
  { func = f; index; dom; live = Liveness.compute ~index f; loops; loop_ids }

type t = {
  fbase : Ir.func;
  fopt : Ir.func;
  mapping : Code_mapper.index;  (** the mapper's log, replayed once *)
  direction : direction;
  src : side;  (** where execution currently is *)
  dst : side;  (** where execution lands *)
  landing : (int, int) Hashtbl.t;
      (** source point → landing anchor; absent key = no landing *)
  cands : (Ir.reg, cand list) Hashtbl.t;
      (** destination register → its interned candidates, replace aliases
          included *)
}

(* ------------------------------------------------------------------ *)
(* Point correspondence (Δ)                                             *)
(* ------------------------------------------------------------------ *)

(** The OSR point universe on the source side: every body instruction and
    terminator (φ-nodes are not program locations, mirroring the paper's
    "IR conditionals and assignment instructions determine locations"). *)
let source_points (t : t) : int list =
  List.concat_map
    (fun (b : Ir.block) ->
      List.map (fun (i : Ir.instr) -> i.id) b.body @ [ b.term_id ])
    t.src.func.blocks

(** Landing point in the destination for source point [p]: the first anchor
    at or after [p] in [p]'s source block (skipping instructions the
    optimizer deleted or moved away), or [None] when the whole remainder of
    the block has no anchor (e.g. the block does not exist on the other
    side). *)
let landing_point (t : t) (p : int) : int option = Hashtbl.find_opt t.landing p

(* ------------------------------------------------------------------ *)
(* Value correspondence                                                 *)
(* ------------------------------------------------------------------ *)

let in_src_frame (t : t) (r : Ir.reg) : bool =
  Hashtbl.mem t.src.index.defs r || Func_index.is_param t.src.index r

(* Intern one candidate value: resolve its availability site and liveness
   id once, so point-by-point tests need no further table lookups. *)
let make_cand (t : t) (v : Ir.value) : cand =
  match v with
  | Ir.Const _ -> { cv = v; akey = Always; live_id = -1 }
  | Ir.Undef -> { cv = v; akey = Never; live_id = -1 }
  | Ir.Reg y ->
      let live_id = Option.value ~default:(-1) (Liveness.id_of t.src.live y) in
      let akey =
        if Func_index.is_param t.src.index y then Always
        else
          match Func_index.def_of t.src.index y with
          | None -> Never
          | Some (d : Ir.def_site) -> (
              match Func_index.position_of t.src.index d.di.id with
              | None -> Never
              | Some (block, idx) ->
                  let rpo =
                    Option.value ~default:(-1)
                      (Hashtbl.find_opt t.src.dom.Dom.index block)
                  in
                  At { block; idx; rpo })
      in
      { cv = v; akey; live_id }

(* Candidate search for destination register [x']: name stability plus,
   with [use_aliases], the replace-action equivalences (Section 5.4's
   "implicit aliasing information"), most specific first. *)
let search ~(use_aliases : bool) (t : t) (x' : Ir.reg) : cand list =
  let name_based = if in_src_frame t x' then [ Ir.Reg x' ] else [] in
  let from_replacements =
    if not use_aliases then []
    else
      match t.direction with
      | Base_to_opt ->
          (* Base registers whose replacement chain resolves to x' hold
             the same value (CSE kept x', deleted them). *)
          List.filter_map
            (fun alias -> if in_src_frame t alias then Some (Ir.Reg alias) else None)
            (Option.value ~default:[]
               (Hashtbl.find_opt (Code_mapper.alias_inverse t.mapping) x'))
      | Opt_to_base -> (
          (* x' is a base register; its replacement tells us what holds
             the value in the optimized code. *)
          match Code_mapper.resolve_replacement t.mapping x' with
          | Some (Ir.Const c) -> [ Ir.Const c ]
          | Some (Ir.Reg r') when in_src_frame t r' -> [ Ir.Reg r' ]
          | Some _ | None -> [])
  in
  List.map (make_cand t) (name_based @ from_replacements)

(* Every destination register — parameters, φ and body definitions — gets
   its candidate list at construction: the sweep asks for the same register
   at most of the points it visits. *)
let fill_candidates (t : t) : unit =
  let fill r = Hashtbl.replace t.cands r (search ~use_aliases:true t r) in
  List.iter fill t.dst.func.params;
  Hashtbl.iter (fun r _ -> fill r) t.dst.index.defs

(** Interned source candidates for destination register [x'] (see
    {!search}); [cv] is the source value.  The ablation's
    [use_aliases = false] searches on demand. *)
let candidates ?(use_aliases = true) (t : t) (x' : Ir.reg) : cand list =
  match if use_aliases then Hashtbl.find_opt t.cands x' else None with
  | Some cs -> cs
  | None -> search ~use_aliases t x'

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let of_sides ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapping : Code_mapper.index)
    ~(base_side : side) ~(opt_side : side) (direction : direction) : t =
  let src, dst =
    match direction with
    | Base_to_opt -> (base_side, opt_side)
    | Opt_to_base -> (opt_side, base_side)
  in
  (* A point id is a valid correspondence anchor when it exists on both
     sides and was not moved between blocks: both versions being "about to
     execute #id" are then the same control state (stores are never moved,
     so memory also agrees — the store invariant of Section 5.3). *)
  let anchor id =
    Hashtbl.mem src.index.positions id
    && Hashtbl.mem dst.index.positions id
    && not (Code_mapper.is_moved mapping id)
  in
  let t =
    {
      fbase;
      fopt;
      mapping;
      direction;
      src;
      dst;
      landing = Ir.first_kept_at_or_after ~keep:anchor src.func;
      cands = Hashtbl.create (Hashtbl.length dst.index.defs + List.length dst.func.params);
    }
  in
  fill_candidates t;
  t

(** The context for one direction.  Neither function may change while the
    context is in use (contexts are built over finished pipeline results). *)
let make ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t)
    (direction : direction) : t =
  of_sides ~fbase ~fopt ~mapping:(Code_mapper.index mapper) ~base_side:(make_side fbase)
    ~opt_side:(make_side fopt) direction

(** Both directions over one pair of side analyses: the forward and
    backward sweeps see the same two functions, so dominators, liveness,
    loops, the index and the mapper's query index are computed once
    instead of twice. *)
let make_pair ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t) () : t * t =
  let base_side = make_side fbase and opt_side = make_side fopt in
  let mapping = Code_mapper.index mapper in
  ( of_sides ~fbase ~fopt ~mapping ~base_side ~opt_side Base_to_opt,
    of_sides ~fbase ~fopt ~mapping ~base_side ~opt_side Opt_to_base )

(* ------------------------------------------------------------------ *)
(* Per-point queries                                                    *)
(* ------------------------------------------------------------------ *)

(** Resolved query environment of source point [p]; the per-point state
    of {!Reconstruct_ir} computes it once per point. *)
let point_env (t : t) (p : int) : penv =
  let pe_bits = Liveness.bits_at t.src.live p in
  match Func_index.position_of t.src.index p with
  | None -> { pe_block = ""; pe_idx = 0; pe_rpo = -2; pe_bits }
  | Some (block, idx) ->
      let rpo = Option.value ~default:(-1) (Hashtbl.find_opt t.src.dom.Dom.index block) in
      { pe_block = block; pe_idx = idx; pe_rpo = rpo; pe_bits }

(** Is an interned candidate available in the source frame at a point?
    Constants and parameters always; a register when its definition
    dominates the point (SSA definedness), tested over pre-resolved
    coordinates.  At a point in an unreachable block every definition
    outside that block is available (vacuous dominance), also one in
    another unreachable block. *)
let cand_available (t : t) (e : penv) (c : cand) : bool =
  match c.akey with
  | Always -> true
  | Never -> false
  | At { block; idx; rpo } ->
      if e.pe_rpo = -2 then false
      else if String.equal block e.pe_block then idx < e.pe_idx
      else if e.pe_rpo = -1 then true  (* unreachable points are vacuously dominated *)
      else
        rpo >= 0
        && (let d = t.src.dom in
            d.Dom.tin.(rpo) <= d.Dom.tin.(e.pe_rpo)
            && d.Dom.tout.(e.pe_rpo) <= d.Dom.tout.(rpo))

let cand_live (e : penv) (c : cand) : bool =
  c.live_id < 0
  || (match e.pe_bits with Some b -> Liveness.Bits.mem b c.live_id | None -> false)

(** May the destination definition at instruction [def_id] be re-executed
    when the machine state corresponds to [landing]?  Re-execution reads the
    {e current} values of the definition's operands, which equal the values
    of its own last execution only when no loop iteration boundary separates
    the two: every natural loop containing the definition must also contain
    the landing point (same-iteration consistency).  A loop-defined value
    needed after its loop cannot be recomputed — only the frame still holds
    its final value, which is precisely what the [avail] variant exploits. *)
let reexec_consistent (t : t) ~(def_id : int) ~(landing : int) : bool =
  (* Is every id of the ascending list [a] also in the ascending [b]? *)
  let rec subset a b =
    match (a, b) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: a', y :: b' -> if x = y then subset a' b else x > y && subset a b'
  in
  let ids_of block = Option.value ~default:[] (Hashtbl.find_opt t.dst.loop_ids block) in
  match (Func_index.owner_of t.dst.index def_id, Func_index.owner_of t.dst.index landing) with
  | Some def_block, Some landing_block -> subset (ids_of def_block) (ids_of landing_block)
  | _, _ -> false
