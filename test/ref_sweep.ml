(** The OSR feasibility sweep as it was while [Osr_ctx] filled its memo
    tables at query time: the context with its lazy landing table and its
    candidate, point-environment, re-execution, load-safety and gate
    caches; Algorithm 1's [build], [for_point_pair] and [for_point_both];
    [Feasibility.classify_point]; and [Endangered.recovery_plan] and
    [analyze_function] (two [make] calls).  Each function is a verbatim
    copy of the code it replaced.  The only edits: [fork] is left out (no
    sweep here runs in parallel), the mapper is the reference CodeMapper of
    {!Ref_mapper} replayed from the library's log ([analyze_function]
    replays it itself), [analyze_function] tracks source variables with
    {!Ref_source_vars}, the mapper's memoized alias inverse is
    rebuilt per query from [Code_mapper.alias_inverse] (the candidate memo
    above it still runs it once per register), the reconstruct counters are
    registered under the group [ref.reconstruct] so both versions can count
    side by side, [make_side] derives [owner] from the index's [positions]
    (the index has no owner table of its own), [make_side] calls
    [Liveness.compute] on the library's dense [Func_index] of [f] (the
    liveness takes an index again; its [id_of], [bits_at], [Bits.mem],
    [is_live] and [live_at] keep their contracts, so the copy reads the
    library's liveness as before), the index, dominator tree and loops are
    the frozen [Func_index], [Dom] and [Loops] of {!Ref_miniir}, and names
    are qualified to compile outside their module.
    The plan, report and variant types are the library's, so results
    compare directly.  [Suite_sweep] runs both versions and asserts every
    observable is byte-identical. *)

module Ir = Miniir.Ir
module Dom = Ref_miniir.Dom
module Func_index = Ref_miniir.Func_index
module Liveness = Miniir.Liveness
module Loops = Ref_miniir.Loops
module Interp = Tinyvm.Interp

module Code_mapper = struct
  include Ref_mapper

  let base_aliases_of (m : t) (r : Ir.reg) : Ir.reg list =
    Option.value ~default:[] (Hashtbl.find_opt (alias_inverse m) r) @ [ r ]
end

(* ------------------------------------------------------------------ *)
(* Osr_ctx                                                              *)
(* ------------------------------------------------------------------ *)

module Osr_ctx = struct
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
  positions : (int, string * int) Hashtbl.t;
  live : Liveness.t;
  defs : (Ir.reg, Ir.def_site) Hashtbl.t;
  owner : (int, string) Hashtbl.t;  (** instruction id → block label *)
  loops : Loops.t;
}

let make_side (f : Ir.func) : side =
  let index = Func_index.make f in
  let dom = Dom.compute ~index f in
  {
    func = f;
    index;
    dom;
    positions = index.Func_index.positions;
    live = Liveness.compute (Miniir.Func_index.make f);
    defs = index.Func_index.defs;
    owner =
      Hashtbl.of_seq
        (Seq.map (fun (id, (block, _)) -> (id, block)) (Hashtbl.to_seq index.Func_index.positions));
    loops = Loops.compute ~index ~dom f;
  }

type t = {
  fbase : Ir.func;
  fopt : Ir.func;
  mapper : Code_mapper.t;
  direction : direction;
  src : side;  (** where execution currently is *)
  dst : side;  (** where execution lands *)
  (* Sweep caches (valid because neither function changes once the context
     exists).  All are lazy: a context built for a single query pays for
     nothing it does not use. *)
  mutable landing_tbl : (int, int) Hashtbl.t option;
      (** source point → landing anchor; absent key = no landing *)
  cand_cache : (Ir.reg, cand list) Hashtbl.t;  (** with replace-alias reuse *)
  cand_cache_plain : (Ir.reg, cand list) Hashtbl.t;  (** name-stability only *)
  mutable last_env : (int * penv) option;  (** one-slot point-env cache *)
  reexec_cache : (int * int, bool) Hashtbl.t;  (** (def_id, landing) *)
  load_safe_cache : (int * int, bool) Hashtbl.t;  (** (def_id, landing) *)
  gate_cache : (int, (Ir.reg * Ir.value * Ir.value * int) option) Hashtbl.t;
      (** φ instruction id → gate decomposition *)
}

let of_sides ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t)
    ~(base_side : side) ~(opt_side : side) (direction : direction) : t =
  let src, dst =
    match direction with
    | Base_to_opt -> (base_side, opt_side)
    | Opt_to_base -> (opt_side, base_side)
  in
  {
    fbase;
    fopt;
    mapper;
    direction;
    src;
    dst;
    landing_tbl = None;
    cand_cache = Hashtbl.create 64;
    cand_cache_plain = Hashtbl.create 16;
    last_env = None;
    reexec_cache = Hashtbl.create 256;
    load_safe_cache = Hashtbl.create 64;
    gate_cache = Hashtbl.create 16;
  }

let make ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t)
    (direction : direction) : t =
  of_sides ~fbase ~fopt ~mapper ~base_side:(make_side fbase) ~opt_side:(make_side fopt)
    direction

(** Both directions over one pair of side analyses: the forward and
    backward sweeps see the same two functions, so dominators, liveness,
    loops and the index are computed once instead of twice. *)
let make_pair ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Code_mapper.t) () : t * t =
  let base_side = make_side fbase and opt_side = make_side fopt in
  ( of_sides ~fbase ~fopt ~mapper ~base_side ~opt_side Base_to_opt,
    of_sides ~fbase ~fopt ~mapper ~base_side ~opt_side Opt_to_base )

(** Has instruction [id] been moved between blocks by the optimizer? *)
let is_moved (t : t) (id : int) : bool = Hashtbl.mem t.mapper.moved id

(* ------------------------------------------------------------------ *)
(* Point correspondence (Δ)                                             *)
(* ------------------------------------------------------------------ *)

(* A point id is a valid correspondence anchor when it exists on both sides
   and was not moved between blocks: both versions being "about to execute
   #id" are then the same control state (stores are never moved, so memory
   also agrees — the store invariant of Section 5.3). *)
let anchor (t : t) (id : int) : bool =
  Hashtbl.mem t.src.positions id && Hashtbl.mem t.dst.positions id && not (is_moved t id)

(** The OSR point universe on the source side: every body instruction and
    terminator (φ-nodes are not program locations, mirroring the paper's
    "IR conditionals and assignment instructions determine locations"). *)
let source_points (t : t) : int list =
  List.concat_map
    (fun (b : Ir.block) ->
      List.map (fun (i : Ir.instr) -> i.id) b.body @ [ b.term_id ])
    t.src.func.blocks

(* All landing points at once: one backward walk per source block keeps the
   nearest anchor at-or-after the cursor, so the whole table costs O(points)
   instead of the O(block²) of rescanning the suffix for every point. *)
let landing_table (t : t) : (int, int) Hashtbl.t =
  match t.landing_tbl with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun (b : Ir.block) ->
          let cur = ref (if anchor t b.term_id then Some b.term_id else None) in
          (match !cur with Some a -> Hashtbl.replace tbl b.term_id a | None -> ());
          List.iter
            (fun (i : Ir.instr) ->
              if anchor t i.id then cur := Some i.id;
              match !cur with Some a -> Hashtbl.replace tbl i.id a | None -> ())
            (List.rev b.body))
        t.src.func.blocks;
      t.landing_tbl <- Some tbl;
      tbl

(** Landing point in the destination for source point [p]: the first anchor
    at or after [p] in [p]'s source block (skipping instructions the
    optimizer deleted or moved away), or [None] when the whole remainder of
    the block has no anchor (e.g. the block does not exist on the other
    side). *)
let landing_point (t : t) (p : int) : int option =
  Hashtbl.find_opt (landing_table t) p

(* ------------------------------------------------------------------ *)
(* Value correspondence                                                 *)
(* ------------------------------------------------------------------ *)

let in_src_frame (t : t) (r : Ir.reg) : bool =
  Hashtbl.mem t.src.defs r || Func_index.is_param t.src.index r

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
          match Hashtbl.find_opt t.src.defs y with
          | None -> Never
          | Some (d : Ir.def_site) -> (
              match Hashtbl.find_opt t.src.positions d.di.id with
              | None -> Never
              | Some (block, idx) ->
                  let rpo =
                    Option.value ~default:(-1)
                      (Hashtbl.find_opt t.src.dom.Dom.index block)
                  in
                  At { block; idx; rpo })
      in
      { cv = v; akey; live_id }

(** Interned source candidates for destination register [x']: name
    stability plus the replace-action equivalences (Section 5.4's "implicit
    aliasing information"), most specific first.  Memoized per context: the
    answer depends only on the function pair and the action history. *)
let candidates ?(use_aliases = true) (t : t) (x' : Ir.reg) : cand list =
  let cache = if use_aliases then t.cand_cache else t.cand_cache_plain in
  match Hashtbl.find_opt cache x' with
  | Some cs -> cs
  | None ->
      let name_based = if in_src_frame t x' then [ Ir.Reg x' ] else [] in
      let from_replacements =
        if not use_aliases then []
        else
          match t.direction with
          | Base_to_opt ->
              (* Base registers whose replacement chain resolves to x' hold
                 the same value (CSE kept x', deleted them). *)
              List.filter_map
                (fun alias ->
                  if String.equal alias x' then None
                  else if in_src_frame t alias then Some (Ir.Reg alias)
                  else None)
                (Code_mapper.base_aliases_of t.mapper x')
          | Opt_to_base -> (
              (* x' is a base register; its replacement tells us what holds
                 the value in the optimized code. *)
              match Code_mapper.resolve_replacement t.mapper x' with
              | Some (Ir.Const c) -> [ Ir.Const c ]
              | Some (Ir.Reg r') when in_src_frame t r' -> [ Ir.Reg r' ]
              | Some _ | None -> [])
      in
      let cs = List.map (make_cand t) (name_based @ from_replacements) in
      Hashtbl.replace cache x' cs;
      cs

(** Source-side values holding the same run-time value as destination
    register [x'] (the un-interned view of {!candidates}). *)
let source_candidates ?(use_aliases = true) (t : t) (x' : Ir.reg) : Ir.value list =
  List.map (fun c -> c.cv) (candidates ~use_aliases t x')

(** Resolved query environment of source point [p] (one-slot cache: the
    sweep asks about one point many times in a row). *)
let point_env (t : t) (p : int) : penv =
  match t.last_env with
  | Some (q, e) when q = p -> e
  | _ ->
      let pe_bits = Liveness.bits_at t.src.live p in
      let e =
        match Hashtbl.find_opt t.src.positions p with
        | None -> { pe_block = ""; pe_idx = 0; pe_rpo = -2; pe_bits }
        | Some (block, idx) ->
            let rpo =
              Option.value ~default:(-1) (Hashtbl.find_opt t.src.dom.Dom.index block)
            in
            { pe_block = block; pe_idx = idx; pe_rpo = rpo; pe_bits }
      in
      t.last_env <- Some (p, e);
      e

(** Availability of an interned candidate at a point: the SSA definedness
    test of {!available_in_src} over pre-resolved coordinates. *)
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

(** Is [v] available in the source frame at source point [src_point]?
    Constants always; registers when they are parameters or their
    definition dominates the point (SSA definedness). *)
let available_in_src (t : t) ~(src_point : int) (v : Ir.value) : bool =
  match v with
  | Ir.Const _ -> true
  | Ir.Undef -> false
  | Ir.Reg y ->
      Func_index.is_param t.src.index y
      || (match Hashtbl.find_opt t.src.defs y with
         | Some (d : Ir.def_site) ->
             Dom.instr_dominates t.src.dom t.src.positions ~def_id:d.di.id ~use_id:src_point
         | None -> false)

(** May the destination definition at instruction [def_id] be re-executed
    when the machine state corresponds to [landing]?  Re-execution reads the
    {e current} values of the definition's operands, which equal the values
    of its own last execution only when no loop iteration boundary separates
    the two: every natural loop containing the definition must also contain
    the landing point (same-iteration consistency).  A loop-defined value
    needed after its loop cannot be recomputed — only the frame still holds
    its final value, which is precisely what the [avail] variant exploits. *)
let reexec_consistent (t : t) ~(def_id : int) ~(landing : int) : bool =
  match Hashtbl.find_opt t.reexec_cache (def_id, landing) with
  | Some b -> b
  | None ->
      let b =
        match (Hashtbl.find_opt t.dst.owner def_id, Hashtbl.find_opt t.dst.owner landing)
        with
        | Some def_block, Some landing_block ->
            List.for_all
              (fun (l : Loops.loop) ->
                (not (Loops.in_loop l def_block)) || Loops.in_loop l landing_block)
              t.dst.loops.loops
        | _, _ -> false
      in
      Hashtbl.replace t.reexec_cache (def_id, landing) b;
      b

let live_in_src (t : t) ~(src_point : int) (v : Ir.value) : bool =
  match v with
  | Ir.Const _ -> true
  | Ir.Undef -> false
  | Ir.Reg y -> Liveness.is_live t.src.live src_point y
end

(* ------------------------------------------------------------------ *)
(* Reconstruct_ir                                                       *)
(* ------------------------------------------------------------------ *)

module Reconstruct_ir = struct
type variant = Osrir.Reconstruct_ir.variant = Live | Avail

type config = Osrir.Reconstruct_ir.config = {
  constant_phi : bool;
  use_aliases : bool;
  gating : bool;
}

let default_config = Osrir.Reconstruct_ir.default_config

exception Undef = Osrir.Reconstruct_ir.Undef

type comp_instr = Osrir.Reconstruct_ir.comp_instr = { target : Ir.reg; rhs : Ir.rhs }

type plan = Osrir.Reconstruct_ir.plan = {
  transfers : (Ir.reg * Ir.value) list;
  comp : comp_instr list;
  keep : Ir.reg list;
}

let plan_is_empty (p : plan) : bool = p.comp = []

(* Is it safe to re-execute the load defined at [def_id] when the machine
   state corresponds to [landing]?  Sufficient condition: no store or
   impure call can execute between (any execution of) the load and the
   landing point — checked as a CFG walk over destination program points
   from just after the load to the landing, cut at re-entries to the load
   itself (a re-entry restarts the window). *)
let load_safe_uncached (t : Osr_ctx.t) ~(def_id : int) ~(landing : int) : bool =
  let index = t.dst.index in
  (* Sequence of (id, rhs option) points per block: body then terminator. *)
  let block_points (b : Ir.block) =
    List.map (fun (i : Ir.instr) -> (i.id, Some i.rhs)) b.body @ [ (b.term_id, None) ]
  in
  let dirty = function
    | Some (Ir.Store _) -> true
    | Some (Ir.Call (name, _)) -> not (Ir.is_pure_call name)
    | Some _ | None -> false
  in
  let visited_blocks : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let exception Unsafe in
  (* Walk the points of block [label] starting after position [after]
     (None = from the top), stopping at [landing] or [def_id]. *)
  let rec walk_block (label : string) ~(after : int option) : unit =
    match Func_index.find_block index label with
    | None -> ()
    | Some b ->
        let points = block_points b in
        let rec scan started = function
          | [] -> List.iter enter (Ir.successors b)
          | (id, rhs) :: rest ->
              if not started then
                if Some id = after then scan true rest else scan false rest
              else if id = landing then ()  (* window closed on this path *)
              else if id = def_id then ()  (* window restarts; later segment covered *)
              else if dirty rhs then raise Unsafe
              else scan true rest
        in
        (* When scanning from the top, "started" is immediately true. *)
        scan (after = None) points
  and enter (label : string) : unit =
    if not (Hashtbl.mem visited_blocks label) then begin
      Hashtbl.add visited_blocks label ();
      walk_block label ~after:None
    end
  in
  match Hashtbl.find_opt t.dst.owner def_id with
  | None -> false
  | Some label -> (
      try
        walk_block label ~after:(Some def_id);
        true
      with Unsafe -> false)

(* The walk depends only on the (immutable) destination function, so its
   verdict is shared across every source point of the sweep. *)
let load_safe (t : Osr_ctx.t) ~(def_id : int) ~(landing : int) : bool =
  match Hashtbl.find_opt t.load_safe_cache (def_id, landing) with
  | Some b -> b
  | None ->
      let b = load_safe_uncached t ~def_id ~landing in
      Hashtbl.replace t.load_safe_cache (def_id, landing) b;
      b

(* Gating-function support (Section 9 future work, narrow sound case): a
   two-way φ in block J whose predecessors form a triangle or diamond under
   J's immediate dominator [d] ending in [cbr c, tl, el].  Each arm must be
   trivially attributable to one branch side (the arm's only predecessor is
   [d], or the edge comes from [d] itself); then the φ's last value was
   decided by [c]'s value at [d]'s last execution, and compensation code can
   rebuild it as [select c, v_true, v_false].  Returns the condition
   register, true/false incoming values, and [d]'s terminator id (used by
   the caller to check that both incomings were computed before the
   branch). *)
let gate_of_phi (t : Osr_ctx.t) ~(phi_block : string) (incoming : (string * Ir.value) list) :
    (Ir.reg * Ir.value * Ir.value * int) option =
  match incoming with
  | [ (pa, va); (pb, vb) ] -> (
      let dom = t.dst.dom in
      (* No back edges into the φ's block: loop-header φs carry iteration
         state, not a branch decision. *)
      let is_back p = Dom.dominates_block dom ~a:phi_block ~b:p in
      if is_back pa || is_back pb then None
      else
        match Dom.idom_of dom phi_block with
        | None -> None
        | Some d_label -> (
            match Func_index.find_block t.dst.index d_label with
            | Some db -> (
                match db.term with
                | Ir.Cbr (Ir.Reg c, tl, el) when not (String.equal tl el) ->
                    let side p =
                      if String.equal p d_label then
                        if String.equal tl phi_block && not (String.equal el phi_block) then
                          Some true
                        else if String.equal el phi_block && not (String.equal tl phi_block)
                        then Some false
                        else None
                      else if
                        String.equal p tl
                        && Func_index.predecessors t.dst.index p = [ d_label ]
                      then Some true
                      else if
                        String.equal p el
                        && Func_index.predecessors t.dst.index p = [ d_label ]
                      then Some false
                      else None
                    in
                    (match (side pa, side pb) with
                    | Some true, Some false -> Some (c, va, vb, db.term_id)
                    | Some false, Some true -> Some (c, vb, va, db.term_id)
                    | _, _ -> None)
                | _ -> None)
            | None -> None))
  | _ -> None

type state = {
  mutable transfers : (Ir.reg * Ir.value) list;  (* reversed *)
  mutable comp : comp_instr list;  (* reversed *)
  mutable keep : Ir.reg list;
  resolved : (Ir.reg, Ir.value) Hashtbl.t;
      (** destination register → the value to use for it inside compensation
          operands: [Reg r] for transferred/compensated registers (bound in
          the landing environment) or a constant/alias *)
}

let fresh_state () =
  { transfers = []; comp = []; keep = []; resolved = Hashtbl.create 16 }

(* Resolve one destination register, extending the plan.  Returns the value
   consumers should use for it. *)
let rec build ?(config = default_config) (t : Osr_ctx.t) (variant : variant) (st : state)
    ~(src_point : int) ~(landing : int) (x' : Ir.reg) : Ir.value =
  match Hashtbl.find_opt st.resolved x' with
  | Some v -> v
  | None ->
      let note v =
        Hashtbl.replace st.resolved x' v;
        v
      in
      (* 1. Directly available at the origin (Algorithm 1, line 4)? *)
      let candidates = Osr_ctx.candidates ~use_aliases:config.use_aliases t x' in
      let env = Osr_ctx.point_env t src_point in
      (* Both variants prefer a live candidate; only [Avail] falls back to a
         dead one.  The keep set then grows only when it must, and an [Avail]
         build whose keep set stays empty made exactly the [Live] build's
         choices (see [for_point_both]). *)
      let live_usable c =
        Osr_ctx.cand_available t env c && Osr_ctx.cand_live env c
      in
      let found =
        match List.find_opt live_usable candidates with
        | Some _ as r -> r
        | None when variant = Avail ->
            List.find_opt (fun c -> Osr_ctx.cand_available t env c) candidates
        | None -> None
      in
      (match found with
      | Some { cv = Ir.Const c; _ } ->
          (* x' must exist in the landing frame even when every consumer
             could inline the constant: it is live there. *)
          st.transfers <- (x', Ir.Const c) :: st.transfers;
          note (Ir.Const c)
      | Some ({ cv = Ir.Reg y; _ } as c) ->
          if (not (Osr_ctx.cand_live env c)) && not (List.mem y st.keep) then
            st.keep <- y :: st.keep;
          st.transfers <- (x', Ir.Reg y) :: st.transfers;
          note (Ir.Reg x')
      | Some { cv = Ir.Undef; _ } | None -> (
          (* 2. Re-execute the destination definition (lines 5–8). *)
          match Hashtbl.find_opt t.dst.defs x' with
          | None -> raise (Undef x')
          | Some (d : Ir.def_site) -> (
              match d.di.rhs with
              | Ir.Phi _ when not config.constant_phi -> raise (Undef x')
              | Ir.Phi incoming -> (
                  (* Constant-φ identification (Section 5.4): all incomings
                     syntactically equal — LCSSA φ-nodes and the like.  The
                     φ result still needs its own binding in the landing
                     frame; reuse the incoming's source value when it was a
                     plain transfer (zero extra instructions), fall back to
                     a register move when it was compensated. *)
                  match incoming with
                  | (_, v0) :: rest when List.for_all (fun (_, v) -> Ir.equal_value v v0) rest
                    -> (
                      match v0 with
                      | Ir.Const c ->
                          st.transfers <- (x', Ir.Const c) :: st.transfers;
                          note (Ir.Const c)
                      | Ir.Reg y' -> (
                          match build ~config t variant st ~src_point ~landing y' with
                          | Ir.Const c ->
                              st.transfers <- (x', Ir.Const c) :: st.transfers;
                              note (Ir.Const c)
                          | Ir.Reg z -> (
                              match List.assoc_opt z st.transfers with
                              | Some src_value ->
                                  st.transfers <- (x', src_value) :: st.transfers;
                                  note (Ir.Reg x')
                              | None ->
                                  (* z was computed by compensation code:
                                     alias with a move. *)
                                  st.comp <-
                                    { target = x'; rhs = Ir.Binop (Ir.Or, Ir.Reg z, Ir.Const 0) }
                                    :: st.comp;
                                  note (Ir.Reg x'))
                          | Ir.Undef -> raise (Undef x'))
                      | Ir.Undef -> raise (Undef x'))
                  | incoming
                    when config.gating
                         && Osr_ctx.reexec_consistent t ~def_id:d.di.id ~landing -> (
                      (* Gating reconstruction: rebuild the φ as a select
                         over its governing branch condition.  The
                         decomposition is a property of the φ alone, so it
                         is resolved once per context. *)
                      let gate =
                        match Hashtbl.find_opt t.gate_cache d.di.id with
                        | Some g -> g
                        | None ->
                            let g = gate_of_phi t ~phi_block:d.block incoming in
                            Hashtbl.replace t.gate_cache d.di.id g;
                            g
                      in
                      match gate with
                      | None -> raise (Undef x')
                      | Some (c, tv, fv, d_term_id) ->
                          (* Both incomings must have been computed before
                             the branch (defs dominate d's terminator), so
                             the frame holds them on either path. *)
                          let always_executed v =
                            match v with
                            | Ir.Const _ -> true
                            | Ir.Undef -> false
                            | Ir.Reg y -> (
                                Func_index.is_param t.dst.index y
                                || match Hashtbl.find_opt t.dst.defs y with
                                   | Some (dy : Ir.def_site) ->
                                       Dom.instr_dominates t.dst.dom t.dst.positions
                                         ~def_id:dy.di.id ~use_id:d_term_id
                                   | None -> false)
                          in
                          if not (always_executed tv && always_executed fv) then
                            raise (Undef x');
                          let build_value v =
                            match v with
                            | Ir.Const _ | Ir.Undef -> v
                            | Ir.Reg y -> build ~config t variant st ~src_point ~landing y
                          in
                          let cv = build ~config t variant st ~src_point ~landing c in
                          let tvv = build_value tv in
                          let fvv = build_value fv in
                          st.comp <- { target = x'; rhs = Ir.Select (cv, tvv, fvv) } :: st.comp;
                          note (Ir.Reg x'))
                  | _ -> raise (Undef x'))
              | _ when not (Osr_ctx.reexec_consistent t ~def_id:d.di.id ~landing) ->
                  (* The definition sits in a loop the landing point is not
                     part of: its operands have advanced past the values of
                     its last execution, so recomputation would be wrong
                     (the frame, via avail, is the only source). *)
                  raise (Undef x')
              | Ir.Load _ when not (load_safe t ~def_id:d.di.id ~landing) -> raise (Undef x')
              | rhs when Ir.is_reexecutable rhs ->
                  let rhs' =
                    Ir.map_rhs_operands
                      (fun v ->
                        match v with
                        | Ir.Const _ | Ir.Undef -> v
                        | Ir.Reg y' -> build ~config t variant st ~src_point ~landing y')
                      rhs
                  in
                  st.comp <- { target = x'; rhs = rhs' } :: st.comp;
                  note (Ir.Reg x')
              | _ -> raise (Undef x'))))

(** Build the full plan for an OSR from [src_point] to [landing]: resolve
    every destination register live at the landing point.  [Error x] when
    register [x] defeats reconstruction (Algorithm 1's [throw undef]). *)
let for_point_pair ?(variant = Live) ?(config = default_config) (t : Osr_ctx.t)
    ~(src_point : int) ~(landing : int) : (plan, Ir.reg) result =
  let st = fresh_state () in
  let targets = Liveness.live_at t.dst.live landing in
  match
    List.iter (fun x' -> ignore (build ~config t variant st ~src_point ~landing x')) targets
  with
  | () ->
      Ok
        {
          transfers = List.rev st.transfers;
          comp = List.rev st.comp;
          keep = List.rev st.keep;
        }
  | exception Undef x -> Error x

(** Both variants for one point pair, usually from a single build.  The
    [Avail] build is strictly more permissive than [Live] in its candidate
    search and identical elsewhere, so (inductively over the resolution
    recursion): an [Avail] failure implies a [Live] failure, and an [Avail]
    success that never read a dead register — empty keep set — made exactly
    the choices the [Live] build would make, plan and all.  Only the
    avail-feasible points with a non-empty keep set pay a second build. *)
let for_point_both ?(config = default_config) (t : Osr_ctx.t) ~(src_point : int)
    ~(landing : int) : (plan, Ir.reg) result * (plan, Ir.reg) result =
  let avail = for_point_pair ~variant:Avail ~config t ~src_point ~landing in
  match avail with
  | Error _ -> (avail, avail)
  | Ok ap when ap.keep = [] -> (avail, avail)
  | Ok _ -> (for_point_pair ~variant:Live ~config t ~src_point ~landing, avail)
end

(* ------------------------------------------------------------------ *)
(* Feasibility.classify_point                                           *)
(* ------------------------------------------------------------------ *)

module Feasibility = struct
type classification = Osrir.Feasibility.classification =
  | Empty
  | With_live of Reconstruct_ir.plan
  | With_avail of Reconstruct_ir.plan
  | Infeasible

type point_report = Osrir.Feasibility.point_report = {
  point : int;
  landing : int option;
  classification : classification;
  live_plan : Reconstruct_ir.plan option;
  avail_plan : Reconstruct_ir.plan option;
}

(* Reconstruct-outcome statistics (`--stats`): how every swept point
   classified, plus how much state the avail variant keeps alive. *)
let stat_points = Telemetry.counter ~group:"ref.reconstruct" "points" ~desc:"source points analyzed"
let stat_empty = Telemetry.counter ~group:"ref.reconstruct" "empty" ~desc:"points with c = <>"

let stat_live =
  Telemetry.counter ~group:"ref.reconstruct" "live" ~desc:"points feasible via the live variant"

let stat_avail =
  Telemetry.counter ~group:"ref.reconstruct" "avail"
    ~desc:"points feasible only via the avail variant"

let stat_infeasible =
  Telemetry.counter ~group:"ref.reconstruct" "infeasible" ~desc:"points no variant can serve"

let stat_keep =
  Telemetry.counter ~group:"ref.reconstruct" "keep_regs"
    ~desc:"registers kept artificially alive across avail plans"

(* Classify one source point against [t], bumping counters and emitting
   remarks through [telemetry].  This is the unit of work of every sweep
   slice: per-point output order and counter totals are identical however
   the points are sharded. *)
let classify_point ~(config : Reconstruct_ir.config) ~(telemetry : Telemetry.sink)
    (t : Osr_ctx.t) ~(fname : string) (p : int) : point_report =
  Telemetry.bump telemetry stat_points;
  match Osr_ctx.landing_point t p with
  | None ->
      Telemetry.bump telemetry stat_infeasible;
      Telemetry.remark telemetry ~pass:"reconstruct" ~func:fname ~instr:p (fun () ->
          Printf.sprintf "bottom at point %d: no landing correspondence" p);
      { point = p; landing = None; classification = Infeasible; live_plan = None;
        avail_plan = None }
  | Some landing -> (
      let live, avail = Reconstruct_ir.for_point_both ~config t ~src_point:p ~landing in
      let report classification live_plan avail_plan =
        { point = p; landing = Some landing; classification; live_plan; avail_plan }
      in
      match (live, avail) with
      | Ok lp, _ ->
          let classification =
            if Reconstruct_ir.plan_is_empty lp && lp.keep = [] then begin
              Telemetry.bump telemetry stat_empty;
              Empty
            end
            else begin
              Telemetry.bump telemetry stat_live;
              With_live lp
            end
          in
          report classification (Some lp) (Result.to_option avail)
      | Error _, Ok ap ->
          Telemetry.bump telemetry stat_avail;
          Telemetry.add telemetry stat_keep (List.length ap.Reconstruct_ir.keep);
          Telemetry.remark telemetry ~pass:"reconstruct" ~func:fname ~instr:p
            (fun () ->
              Printf.sprintf "point %d needs avail: keep {%s} alive" p
                (String.concat ", " ap.Reconstruct_ir.keep));
          report (With_avail ap) None (Some ap)
      | Error x, Error _ ->
          Telemetry.bump telemetry stat_infeasible;
          Telemetry.remark telemetry ~pass:"reconstruct" ~func:fname ~instr:p
            (fun () ->
              Printf.sprintf "bottom at point %d: %%%s unavailable in the source frame"
                p x);
          report Infeasible None None)


(* The inline sweep of [analyze], without the span. *)
let sweep ~config ~telemetry (t : Osr_ctx.t) : point_report list =
  let fname = t.Osr_ctx.src.Osr_ctx.func.Ir.fname in
  List.map (classify_point ~config ~telemetry t ~fname) (Osr_ctx.source_points t)
end

(* ------------------------------------------------------------------ *)
(* Endangered                                                           *)
(* ------------------------------------------------------------------ *)

module Endangered = struct
module Ctx = Osr_ctx
module R = Reconstruct_ir
module Source_vars = Ref_source_vars

type var_status = Debuginfo.Endangered.var_status = {
  var : string;
  carrier : Ir.reg;
  endangered : bool;
  recoverable_live : bool;
  recoverable_avail : bool;
  keep : Ir.reg list;
}

type point_report = Debuginfo.Endangered.point_report = {
  base_point : int;
  opt_point : int;
  vars : var_status list;
}

type func_report = Debuginfo.Endangered.func_report = {
  fname : string;
  base_size : int;
  optimized : bool;
  points : point_report list;
}

let recovery_plan (ctx : Ctx.t) (variant : R.variant) ~(opt_point : int) ~(base_point : int)
    (x : Ir.reg) : R.plan option =
  let st = R.fresh_state () in
  match R.build ctx variant st ~src_point:opt_point ~landing:base_point x with
  | _ ->
      Some
        { R.transfers = List.rev st.transfers; comp = List.rev st.comp; keep = List.rev st.keep }
  | exception R.Undef _ -> None

(* Try to reconstruct one fbase register from the fopt frame at opt_point. *)
let try_recover (ctx : Ctx.t) (variant : R.variant) ~(opt_point : int) ~(base_point : int)
    (x : Ir.reg) : (Ir.reg list, unit) result =
  match recovery_plan ctx variant ~opt_point ~base_point x with
  | Some plan -> Ok plan.keep
  | None -> Error ()

let analyze_function ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Passes.Code_mapper.t)
    ~(user_vars : string list) ~(source_points : int list) : func_report =
  let sv = Source_vars.analyze fbase ~user_vars in
  (* Breakpoint correspondence: fbase → fopt (where does the breakpoint
     land in optimized code), value recovery: fopt → fbase. *)
  let replayed = Ref_mapper.replay mapper in
  let fwd = Ctx.make ~fbase ~fopt ~mapper:replayed Ctx.Base_to_opt in
  let bwd = Ctx.make ~fbase ~fopt ~mapper:replayed Ctx.Opt_to_base in
  let points =
    List.filter_map
      (fun base_point ->
        match Ctx.landing_point fwd base_point with
        | None -> None
        | Some opt_point ->
            let vars =
              List.map
                (fun (var, carrier) ->
                  (* Directly reported: an equivalent of the carrier is
                     live in the optimized frame at the breakpoint. *)
                  let direct =
                    List.exists
                      (fun v ->
                        Ctx.available_in_src bwd ~src_point:opt_point v
                        && Ctx.live_in_src bwd ~src_point:opt_point v
                        && match v with Ir.Reg _ -> true | _ -> false)
                      (Ctx.source_candidates bwd carrier)
                  in
                  if direct then
                    {
                      var;
                      carrier;
                      endangered = false;
                      recoverable_live = true;
                      recoverable_avail = true;
                      keep = [];
                    }
                  else
                    let live_ok =
                      Result.is_ok
                        (try_recover bwd R.Live ~opt_point ~base_point carrier)
                    in
                    let avail = try_recover bwd R.Avail ~opt_point ~base_point carrier in
                    {
                      var;
                      carrier;
                      endangered = true;
                      recoverable_live = live_ok;
                      recoverable_avail = Result.is_ok avail;
                      keep = (match avail with Ok k -> k | Error () -> []);
                    })
                (Source_vars.tracked_at sv ~point:base_point)
            in
            Some { base_point; opt_point; vars })
      source_points
  in
  {
    fname = fbase.Ir.fname;
    base_size = Ir.instr_count fbase;
    optimized = Passes.Code_mapper.actions_in_order mapper <> [];
    points;
  }
end
