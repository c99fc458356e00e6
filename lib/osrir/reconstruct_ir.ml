open Import

(** Algorithm 1 over SSA (Section 5.2): build the compensation code that
    materializes every destination value live at the OSR landing point,
    reading only values available in the source frame.

    SSA makes the minilang version's bookkeeping unnecessary — a register
    has one value per activation, and the unique-reaching-definition check
    [ud] is structural (definitions dominate uses).  What remains of
    Algorithm 1:

    - line 4's "already available at the origin" becomes the candidate
      search over name-stable and replace-equivalent source values
      ({!Osr_ctx.source_candidates});
    - the [live] / [avail] split (Section 5.2): [live] may read only
      source registers live at the OSR origin, [avail] any register whose
      definition dominates the origin, accumulating the keep set [K_avail];
    - lines 5–8 re-execute the destination definition, recursing on its
      operands — with φ-nodes handled by the constant-φ identification of
      Section 5.4 (all incomings syntactically equal — the LCSSA case) and
      loads guarded by a no-intervening-store path check (Section 5.3). *)

type variant = Live | Avail

(** Ablation switches (benchmarked by `bench/main.exe ablate`):
    [constant_phi] — the Section 5.4 constant-φ identification;
    [use_aliases] — value equivalences harvested from replace actions;
    [gating] — the paper's Section 9 future-work extension: reconstruct a
    two-way φ as a [select] over its governing branch condition
    ("compensation code with control flow ... using gating functions"). *)
type config = { constant_phi : bool; use_aliases : bool; gating : bool }

let default_config = { constant_phi = true; use_aliases = true; gating = true }

exception Undef of Ir.reg

(** One compensation instruction: compute [rhs] (whose register operands
    refer to transferred or earlier-compensated destination registers) and
    bind it to the destination register. *)
type comp_instr = { target : Ir.reg; rhs : Ir.rhs }

type plan = {
  transfers : (Ir.reg * Ir.value) list;
      (** destination register ← source value (register or constant),
          applied before [comp] runs *)
  comp : comp_instr list;  (** executed in order after the transfers *)
  keep : Ir.reg list;
      (** source registers the [Avail] variant reads although they are not
          live at the origin — [K_avail] of Table 3 *)
}

let comp_size (p : plan) : int = List.length p.comp

let plan_is_empty (p : plan) : bool = p.comp = []

(* Is it safe to re-execute the load defined at [def_id] when the machine
   state corresponds to [landing]?  Sufficient condition: no store or
   impure call can execute between (any execution of) the load and the
   landing point — checked as a CFG walk over destination program points
   from just after the load to the landing, cut at re-entries to the load
   itself (a re-entry restarts the window). *)
let load_safe_walk (t : Osr_ctx.t) ~(def_id : int) ~(landing : int) : bool =
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

(* The per-point state: the point pair, what is resolved once per point,
   and the plan under construction.  Nothing here outlives the point, so
   the context it reads stays immutable. *)
type state = {
  ctx : Osr_ctx.t;
  landing : int;
  env : Osr_ctx.penv;  (** the source point's query environment *)
  load_safe : (int, bool) Hashtbl.t;
      (** load definition id → {!load_safe_walk} verdict for [landing] *)
  mutable transfers : (Ir.reg * Ir.value) list;  (* reversed *)
  mutable comp : comp_instr list;  (* reversed *)
  mutable keep : Ir.reg list;
  resolved : (Ir.reg, Ir.value) Hashtbl.t;
      (** destination register → the value to use for it inside compensation
          operands: [Reg r] for transferred/compensated registers (bound in
          the landing environment) or a constant/alias *)
}

let fresh_state (t : Osr_ctx.t) ~(src_point : int) ~(landing : int) : state =
  {
    ctx = t;
    landing;
    env = Osr_ctx.point_env t src_point;
    load_safe = Hashtbl.create 8;
    transfers = [];
    comp = [];
    keep = [];
    resolved = Hashtbl.create 16;
  }

(* A second build for the same point pair: an empty plan that keeps the
   point environment and the load verdicts of [st]. *)
let restart (st : state) : state =
  { st with transfers = []; comp = []; keep = []; resolved = Hashtbl.create 16 }

let plan_of_state (st : state) : plan =
  { transfers = List.rev st.transfers; comp = List.rev st.comp; keep = List.rev st.keep }

let load_safe (st : state) ~(def_id : int) : bool =
  match Hashtbl.find_opt st.load_safe def_id with
  | Some b -> b
  | None ->
      let b = load_safe_walk st.ctx ~def_id ~landing:st.landing in
      Hashtbl.replace st.load_safe def_id b;
      b

(* Resolve one destination register, extending the plan.  Returns the value
   consumers should use for it. *)
let rec build ?(config = default_config) (variant : variant) (st : state) (x' : Ir.reg) :
    Ir.value =
  let t = st.ctx and env = st.env in
  match Hashtbl.find_opt st.resolved x' with
  | Some v -> v
  | None ->
      let note v =
        Hashtbl.replace st.resolved x' v;
        v
      in
      (* 1. Directly available at the origin (Algorithm 1, line 4)? *)
      let candidates = Osr_ctx.candidates ~use_aliases:config.use_aliases t x' in
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
                          match build ~config variant st y' with
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
                         && Osr_ctx.reexec_consistent t ~def_id:d.di.id ~landing:st.landing -> (
                      (* Gating reconstruction: rebuild the φ as a select
                         over its governing branch condition. *)
                      match gate_of_phi t ~phi_block:d.block incoming with
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
                            | Ir.Reg y -> build ~config variant st y
                          in
                          let cv = build ~config variant st c in
                          let tvv = build_value tv in
                          let fvv = build_value fv in
                          st.comp <- { target = x'; rhs = Ir.Select (cv, tvv, fvv) } :: st.comp;
                          note (Ir.Reg x'))
                  | _ -> raise (Undef x'))
              | _ when not (Osr_ctx.reexec_consistent t ~def_id:d.di.id ~landing:st.landing) ->
                  (* The definition sits in a loop the landing point is not
                     part of: its operands have advanced past the values of
                     its last execution, so recomputation would be wrong
                     (the frame, via avail, is the only source). *)
                  raise (Undef x')
              | Ir.Load _ when not (load_safe st ~def_id:d.di.id) -> raise (Undef x')
              | rhs when Ir.is_reexecutable rhs ->
                  let rhs' =
                    Ir.map_rhs_operands
                      (fun v ->
                        match v with
                        | Ir.Const _ | Ir.Undef -> v
                        | Ir.Reg y' -> build ~config variant st y')
                      rhs
                  in
                  st.comp <- { target = x'; rhs = rhs' } :: st.comp;
                  note (Ir.Reg x')
              | _ -> raise (Undef x'))))

(* Resolve every register of [targets] into [st]'s plan. *)
let run ~(config : config) (variant : variant) (st : state) (targets : Ir.reg list) :
    (plan, Ir.reg) result =
  match List.iter (fun x' -> ignore (build ~config variant st x')) targets with
  | () -> Ok (plan_of_state st)
  | exception Undef x -> Error x

(** Build the full plan for an OSR from [src_point] to [landing]: resolve
    every destination register live at the landing point.  [Error x] when
    register [x] defeats reconstruction (Algorithm 1's [throw undef]). *)
let for_point_pair ?(variant = Live) ?(config = default_config) (t : Osr_ctx.t)
    ~(src_point : int) ~(landing : int) : (plan, Ir.reg) result =
  run ~config variant (fresh_state t ~src_point ~landing) (Liveness.live_at t.dst.live landing)

(** Both variants for one point pair, usually from a single build.  The
    [Avail] build is strictly more permissive than [Live] in its candidate
    search and identical elsewhere, so (inductively over the resolution
    recursion): an [Avail] failure implies a [Live] failure, and an [Avail]
    success that never read a dead register — empty keep set — made exactly
    the choices the [Live] build would make, plan and all.  Only the
    avail-feasible points with a non-empty keep set pay a second build,
    which reuses the first one's live targets, point environment and load
    verdicts. *)
let for_point_both ?(config = default_config) (t : Osr_ctx.t) ~(src_point : int)
    ~(landing : int) : (plan, Ir.reg) result * (plan, Ir.reg) result =
  let targets = Liveness.live_at t.dst.live landing in
  let st = fresh_state t ~src_point ~landing in
  let avail = run ~config Avail st targets in
  match avail with
  | Error _ -> (avail, avail)
  | Ok ap when ap.keep = [] -> (avail, avail)
  | Ok _ -> (run ~config Live (restart st) targets, avail)

(** Evaluate a plan against a source frame, producing the landing frame —
    the [[[c]](σ)] of Definition 3.1 at IR level.  Loads read from [memory]
    (shared between versions; the store invariant makes this sound). *)
let eval_plan (plan : plan) ~(src_frame : Interp.frame) ~(memory : Interp.memory) :
    (Interp.frame, Ir.reg) result =
  let env : Interp.frame = Hashtbl.create 32 in
  let read v =
    match v with
    | Ir.Const n -> Some n
    | Ir.Undef -> None
    | Ir.Reg r -> (
        match Hashtbl.find_opt env r with
        | Some n -> Some n
        | None -> Hashtbl.find_opt src_frame r)
  in
  let exception Bad of Ir.reg in
  try
    (* Transfers are an atomic snapshot of the source frame: they read the
       source only (never each other), since source and destination share
       register names and a transfer may shadow a name another transfer
       still needs. *)
    List.iter
      (fun (x', v) ->
        match
          (match v with
          | Ir.Const n -> Some n
          | Ir.Undef -> None
          | Ir.Reg r -> Hashtbl.find_opt src_frame r)
        with
        | Some n -> Hashtbl.replace env x' n
        | None -> raise (Bad x'))
      plan.transfers;
    List.iter
      (fun { target; rhs } ->
        let value =
          match rhs with
          | Ir.Binop (op, a, b) -> (
              match (read a, read b) with
              | Some x, Some y -> (
                  match Passes.Fold.eval_binop op x y with
                  | Some v -> v
                  | None -> raise (Bad target))
              | _ -> raise (Bad target))
          | Ir.Icmp (op, a, b) -> (
              match (read a, read b) with
              | Some x, Some y -> Passes.Fold.eval_icmp op x y
              | _ -> raise (Bad target))
          | Ir.Select (c, tv, ev) -> (
              match (read c, read tv, read ev) with
              | Some c, Some t, Some e -> if c <> 0 then t else e
              | _ -> raise (Bad target))
          | Ir.Load a -> (
              match read a with
              | Some addr -> Interp.mem_load memory addr
              | None -> raise (Bad target))
          | Ir.Call (name, args) when Ir.is_pure_call name -> (
              let argv = List.map read args in
              if List.for_all Option.is_some argv then
                match Passes.Fold.eval_intrinsic name (List.map Option.get argv) with
                | Some v -> v
                | None -> raise (Bad target)
              else raise (Bad target))
          | Ir.Call _ | Ir.Store _ | Ir.Alloca _ | Ir.Phi _ -> raise (Bad target)
        in
        Hashtbl.replace env target value)
      plan.comp;
    Ok env
  with Bad r -> Error r
