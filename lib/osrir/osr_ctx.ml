open Import

(** Shared context for IR-level OSR mapping construction between a base
    function and its optimized clone: direction handling, point
    correspondence (the Δ of Section 4.2), and value correspondence derived
    from the CodeMapper's action history (Section 5.1).

    Performance architecture: each side numbers its function once — its
    blocks and points by one {!Func_index}, which its dominator tree,
    loops and liveness all read, its registers by {!Liveness} in name
    order — and {!make_side} derives every other side table (the loops
    containing each block, each register's definition and source
    candidate) exactly once, in arrays over those numbers.  The context
    also builds, once, the cross-point tables that make the per-point
    feasibility sweep near-linear: the landing point of every source point
    ({!Ir.iter_first_kept}), the mapper's query index, and the
    interned candidate list of every destination register id.  Nothing is
    written after {!make} or {!make_pair} returns, so one context serves
    any number of domains at once; reuse within one point lives in the
    per-point state of {!Reconstruct_ir}. *)

type direction = Base_to_opt | Opt_to_base

(** When is an interned candidate available in the source frame? *)
type avail_key =
  | Always  (** constants and parameters *)
  | Never  (** [Undef] or not part of the source frame *)
  | At of { block : int; idx : int; rpo : int }
      (** definition site: block number, position inside the block, and the
          block's reverse-postorder index ([-1] when unreachable) *)

(** A source candidate with its availability and liveness keys resolved
    once: testing it against a program point is then pure array and bit
    work — no hashing, no table lookups. *)
type cand = {
  cv : Ir.value;
  akey : avail_key;
  live_id : int;  (** register id on the source side; [-1] = always live (constants) *)
}

(** Resolved query environment of one source program point (the point's
    block coordinates and live-before set), computed once per point. *)
type penv = {
  pe_block : int;  (** block number; [-1] unknown point *)
  pe_idx : int;
  pe_rpo : int;  (** rpo of the block; [-1] unreachable, [-2] unknown point *)
  pe_bits : Liveness.Bits.t option;
}

(** One function version with every analysis the OSR layer asks about it.
    Blocks and points are numbered once, by its {!Func_index}, registers
    by {!Liveness} in name order, and the per-register tables are arrays
    over those numbers. *)
type side = {
  func : Ir.func;
  index : Func_index.t;  (** block and point numbers *)
  dom : Dom.t;
  live : Liveness.t;  (** its register ids number the side *)
  loops : Loops.t;
  loop_ids : int list array;
      (** block number → ascending ids (positions in [loops]) of the
          natural loops containing the block *)
  defs : Ir.def_site option array;  (** register id → its SSA definition *)
  as_cand : cand array;
      (** register id → the register as a source candidate, [cv] its
          interned [Ir.Reg]; [akey = Never] when it is neither a parameter
          nor defined *)
}

(** A candidate that is never available: the "none" of a candidate
    search, and the filler of candidate arrays. *)
let no_cand = { cv = Ir.Undef; akey = Never; live_id = -1 }

let make_side (f : Ir.func) : side =
  let index = Func_index.make f in
  let dom = Dom.compute index in
  let loops = Loops.compute dom in
  let live = Liveness.compute ~name_order:true index in
  let loop_ids = Array.make (Array.length index.blocks) [] in
  List.iteri
    (fun k (l : Loops.loop) ->
      List.iter
        (fun b ->
          let n = Func_index.block_number index b in
          if n >= 0 then loop_ids.(n) <- k :: loop_ids.(n))
        l.body)
    loops.loops;
  Array.iteri (fun n ks -> loop_ids.(n) <- List.rev ks) loop_ids;
  let defs = Array.make (Array.length live.Liveness.names) None in
  Array.iter
    (fun (b : Ir.block) ->
      let at ~in_phis (i : Ir.instr) =
        match i.result with
        | Some r -> (
            match Liveness.id_of live r with
            | Some x -> defs.(x) <- Some { Ir.di = i; block = b.label; in_phis }
            | None -> ())
        | None -> ()
      in
      List.iter (at ~in_phis:true) b.phis;
      List.iter (at ~in_phis:false) b.body)
    index.blocks;
  (* Filled in place from a constant: a large array made from a young
     first element ([Array.mapi]) costs a minor collection. *)
  let as_cand = Array.make (Array.length live.Liveness.names) no_cand in
  Array.iteri
    (fun x r ->
      let akey =
        match defs.(x) with
        | Some d ->
            let n = index.point_block.(d.di.id) in
            At { block = n; idx = index.point_pos.(d.di.id); rpo = dom.rpo.(n) }
        | None -> Never
      in
      as_cand.(x) <- { cv = Ir.Reg r; akey; live_id = x })
    live.Liveness.names;
  List.iter
    (fun p ->
      match Liveness.id_of live p with
      | Some x -> as_cand.(x) <- { (as_cand.(x)) with akey = Always }
      | None -> ())
    f.params;
  { func = f; index; dom; live; loops; loop_ids; defs; as_cand }

(** Register [x] of side [s] is part of its frame: a parameter or defined. *)
let in_frame (s : side) (x : int) : bool = x >= 0 && s.as_cand.(x).akey <> Never

type t = {
  fbase : Ir.func;
  fopt : Ir.func;
  mapping : Code_mapper.index;  (** the mapper's log, replayed once *)
  direction : direction;
  src : side;  (** where execution currently is *)
  dst : side;  (** where execution lands *)
  landing : int array;
      (** source point id → landing anchor; [-1] (or an id beyond the
          array) = no landing *)
  cands : cand list array;
      (** destination register id → its interned candidates, replace
          aliases included *)
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
let landing_point (t : t) (p : int) : int option =
  if p >= 0 && p < Array.length t.landing && t.landing.(p) >= 0 then Some t.landing.(p) else None

(* ------------------------------------------------------------------ *)
(* Value correspondence                                                 *)
(* ------------------------------------------------------------------ *)

(* Source candidate for a register name, if it is part of the source
   frame. *)
let frame_cand (t : t) (r : Ir.reg) : cand option =
  match Liveness.id_of t.src.live r with
  | Some y when in_frame t.src y -> Some t.src.as_cand.(y)
  | Some _ | None -> None

(* The replace-action equivalences of destination register [x'] (Section
   5.4's "implicit aliasing information"), most specific first. *)
let alias_cands (t : t) (x' : Ir.reg) : cand list =
  match t.direction with
  | Base_to_opt ->
      (* Base registers whose replacement chain resolves to x' hold the
         same value (CSE kept x', deleted them). *)
      List.filter_map (frame_cand t)
        (Option.value ~default:[] (Hashtbl.find_opt (Code_mapper.alias_inverse t.mapping) x'))
  | Opt_to_base -> (
      (* x' is a base register; its replacement tells us what holds the
         value in the optimized code. *)
      match Code_mapper.resolve_replacement t.mapping x' with
      | Some (Ir.Const _ as c) -> [ { cv = c; akey = Always; live_id = -1 } ]
      | Some (Ir.Reg r') -> Option.to_list (frame_cand t r')
      | Some Ir.Undef | None -> [])

(* Candidate search for destination register [x'] by name: name stability
   plus, with [use_aliases], the replace-action equivalences. *)
let search ~(use_aliases : bool) (t : t) (x' : Ir.reg) : cand list =
  Option.to_list (frame_cand t x') @ if use_aliases then alias_cands t x' else []

(* Every destination register gets its candidate list at construction: the
   sweep asks for the same register at most of the points it visits.  The
   name-stable candidate comes from [to_src] (destination register id → id
   of the source register of the same name, [-1] for none); only registers
   that occur in the mapper's replace history are looked up by name. *)
let fill_candidates (t : t) ~(to_src : int array) : unit =
  Array.iteri
    (fun x y -> if in_frame t.src y then t.cands.(x) <- [ t.src.as_cand.(y) ])
    to_src;
  let add_aliases x' =
    match Liveness.id_of t.dst.live x' with
    | Some x -> (
        match alias_cands t x' with [] -> () | cs -> t.cands.(x) <- t.cands.(x) @ cs)
    | None -> ()
  in
  match t.direction with
  | Base_to_opt -> Hashtbl.iter (fun x' _ -> add_aliases x') (Code_mapper.alias_inverse t.mapping)
  | Opt_to_base -> Hashtbl.iter (fun x' _ -> add_aliases x') t.mapping.Code_mapper.repl

(** Interned candidates of destination register id [x]: the table built at
    construction, or with [use_aliases = false] (the ablation) a search by
    name. *)
let candidates_of (t : t) ~(use_aliases : bool) (x : int) : cand list =
  if use_aliases then t.cands.(x)
  else search ~use_aliases t t.dst.live.Liveness.names.(x)

(** Interned source candidates for destination register [x'] (see
    {!search}); [cv] is the source value. *)
let candidates ?(use_aliases = true) (t : t) (x' : Ir.reg) : cand list =
  match Liveness.id_of t.dst.live x' with
  | Some x -> candidates_of t ~use_aliases x
  | None -> search ~use_aliases t x'

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

(* Register ids of [a] → ids of the same names in [b] and back ([-1] =
   no such register): one name lookup per register of [a], for both
   directions of a pair. *)
let cross (a : side) (b : side) : int array * int array =
  let a_to_b = Array.make (Array.length a.as_cand) (-1) in
  let b_to_a = Array.make (Array.length b.as_cand) (-1) in
  Array.iteri
    (fun x r ->
      match Liveness.id_of b.live r with
      | Some y ->
          a_to_b.(x) <- y;
          b_to_a.(y) <- x
      | None -> ())
    a.live.Liveness.names;
  (a_to_b, b_to_a)

let of_sides ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapping : Code_mapper.index)
    ~(base_side : side) ~(opt_side : side) ~(base_to_opt : int array)
    ~(opt_to_base : int array) (direction : direction) : t =
  let src, dst, to_src =
    match direction with
    | Base_to_opt -> (base_side, opt_side, opt_to_base)
    | Opt_to_base -> (opt_side, base_side, base_to_opt)
  in
  (* A point id is a valid correspondence anchor when it exists on both
     sides and was not moved between blocks: both versions being "about to
     execute #id" are then the same control state (stores are never moved,
     so memory also agrees — the store invariant of Section 5.3). *)
  let anchor id =
    Func_index.is_point src.index id && Func_index.is_point dst.index id
    && not (Code_mapper.is_moved mapping id)
  in
  let landing = Array.make (Array.length src.index.point_block) (-1) in
  Ir.iter_first_kept ~keep:anchor src.func (fun p a -> landing.(p) <- a);
  let t =
    {
      fbase;
      fopt;
      mapping;
      direction;
      src;
      dst;
      landing;
      cands = Array.make (Array.length dst.as_cand) [];
    }
  in
  fill_candidates t ~to_src;
  t

(** The context for one direction.  Neither function may change while the
    context is in use (contexts are built over finished pipeline results). *)
let make ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t)
    (direction : direction) : t =
  let base_side = make_side fbase and opt_side = make_side fopt in
  let base_to_opt, opt_to_base = cross base_side opt_side in
  of_sides ~fbase ~fopt ~mapping:(Code_mapper.index mapper) ~base_side ~opt_side ~base_to_opt
    ~opt_to_base direction

(** Both directions over one pair of side analyses: the forward and
    backward sweeps see the same two functions, so every side analysis,
    the register correspondence and the mapper's query index are computed
    once instead of twice. *)
let make_pair ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t) () : t * t =
  let base_side = make_side fbase and opt_side = make_side fopt in
  let base_to_opt, opt_to_base = cross base_side opt_side in
  let mapping = Code_mapper.index mapper in
  let side = of_sides ~fbase ~fopt ~mapping ~base_side ~opt_side ~base_to_opt ~opt_to_base in
  (side Base_to_opt, side Opt_to_base)

(* ------------------------------------------------------------------ *)
(* Per-point queries                                                    *)
(* ------------------------------------------------------------------ *)

(** Resolved query environment of source point [p]; the per-point state
    of {!Reconstruct_ir} computes it once per point. *)
let point_env (t : t) (p : int) : penv =
  let s = t.src in
  let pe_bits = Liveness.bits_at s.live p in
  if Func_index.is_point s.index p then
    let n = s.index.point_block.(p) in
    { pe_block = n; pe_idx = s.index.point_pos.(p); pe_rpo = s.dom.rpo.(n); pe_bits }
  else { pe_block = -1; pe_idx = 0; pe_rpo = -2; pe_bits }

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
      else if block = e.pe_block then idx < e.pe_idx
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
  let block_of id = if Func_index.is_point t.dst.index id then t.dst.index.point_block.(id) else -1 in
  let def_block = block_of def_id and landing_block = block_of landing in
  def_block >= 0 && landing_block >= 0
  && subset t.dst.loop_ids.(def_block) t.dst.loop_ids.(landing_block)
