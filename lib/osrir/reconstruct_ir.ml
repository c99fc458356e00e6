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
      ({!Osr_ctx.candidates});
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
    match Osr_ctx.find_block t.dst label with
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
  match Osr_ctx.owner t.dst def_id with
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
            match Osr_ctx.find_block t.dst d_label with
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
                        && Osr_ctx.predecessors t.dst p = [ d_label ]
                      then Some true
                      else if
                        String.equal p el
                        && Osr_ctx.predecessors t.dst p = [ d_label ]
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

(* A growable stack of plan entries, reused from build to build: a plan's
   lists are made once, when the build succeeds. *)
type 'a stack = { mutable items : 'a array; mutable len : int; filler : 'a }

let stack (filler : 'a) : 'a stack = { items = Array.make 16 filler; len = 0; filler }

let push (s : 'a stack) (x : 'a) : unit =
  if s.len = Array.length s.items then begin
    let items = Array.make (2 * s.len) s.filler in
    Array.blit s.items 0 items 0 s.len;
    s.items <- items
  end;
  s.items.(s.len) <- x;
  s.len <- s.len + 1

let to_list (s : 'a stack) : 'a list =
  let l = ref [] in
  for i = s.len - 1 downto 0 do
    l := s.items.(i) :: !l
  done;
  !l

(* The state of one point pair: the pair, what is resolved once per pair,
   and the plan under construction.  A state moves from pair to pair
   ({!retarget}), so a sweep allocates its tables once; the context it
   reads stays immutable. *)
type state = {
  ctx : Osr_ctx.t;
  mutable landing : int;
  mutable env : Osr_ctx.penv;  (** the source point's query environment *)
  mutable load_safe : (int * bool) list;
      (** load definition id → {!load_safe_walk} verdict for [landing] *)
  transfers : (Ir.reg * Ir.value) stack;
  comp : comp_instr stack;
  keep : Ir.reg stack;
  resolved : Ir.value array;
      (** destination register id → the value to use for it inside
          compensation operands: [Reg r] for transferred/compensated
          registers (bound in the landing environment) or a
          constant/alias; an entry counts only where [stamps] holds the
          current [stamp] *)
  stamps : int array;
  mutable stamp : int;  (** the current build's; bumping it empties [resolved] *)
}

let fresh_state (t : Osr_ctx.t) ~(src_point : int) ~(landing : int) : state =
  let n = Array.length t.dst.as_cand in
  {
    ctx = t;
    landing;
    env = Osr_ctx.point_env t src_point;
    load_safe = [];
    transfers = stack ("", Ir.Undef);
    comp = stack { target = ""; rhs = Ir.Alloca 0 };
    keep = stack "";
    resolved = Array.make n Ir.Undef;
    stamps = Array.make n 0;
    stamp = 1;
  }

(* Empty [st]'s plan: the next build starts afresh at the same pair. *)
let reset (st : state) : unit =
  st.stamp <- st.stamp + 1;
  st.transfers.len <- 0;
  st.comp.len <- 0;
  st.keep.len <- 0

(** Move [st] to another point pair, with an empty plan. *)
let retarget (st : state) ~(src_point : int) ~(landing : int) : unit =
  st.landing <- landing;
  st.env <- Osr_ctx.point_env st.ctx src_point;
  st.load_safe <- [];
  reset st

let plan_of_state (st : state) : plan =
  { transfers = to_list st.transfers; comp = to_list st.comp; keep = to_list st.keep }

let load_safe (st : state) ~(def_id : int) : bool =
  match List.assoc_opt def_id st.load_safe with
  | Some b -> b
  | None ->
      let b = load_safe_walk st.ctx ~def_id ~landing:st.landing in
      st.load_safe <- (def_id, b) :: st.load_safe;
      b

(* The candidate a variant reads, {!Osr_ctx.no_cand} (an [Undef]) when
   there is none.  Both variants prefer a live candidate; only [Avail]
   falls back to a dead one.  The keep set then grows only when it must,
   and an [Avail] build whose keep set stays empty made exactly the [Live]
   build's choices (see [both]). *)
let rec first_live t env = function
  | [] -> Osr_ctx.no_cand
  | c :: cs ->
      if Osr_ctx.cand_available t env c && Osr_ctx.cand_live env c then c
      else first_live t env cs

let rec first_available t env = function
  | [] -> Osr_ctx.no_cand
  | c :: cs -> if Osr_ctx.cand_available t env c then c else first_available t env cs

let pick (t : Osr_ctx.t) (env : Osr_ctx.penv) (variant : variant) (cs : Osr_ctx.cand list) :
    Osr_ctx.cand =
  let c = first_live t env cs in
  if c == Osr_ctx.no_cand && variant = Avail then first_available t env cs else c

(* Is source register [y] in the keep set? *)
let kept (st : state) (y : Ir.reg) : bool =
  let rec from i = i >= 0 && (String.equal st.keep.items.(i) y || from (i - 1)) in
  from (st.keep.len - 1)

(* The source value the latest transfer of [z] reads. *)
let transfer_of (st : state) (z : Ir.reg) : Ir.value option =
  let rec from i =
    if i < 0 then None
    else
      let r, v = st.transfers.items.(i) in
      if String.equal r z then Some v else from (i - 1)
  in
  from (st.transfers.len - 1)

(* Record [v] as the value of destination register id [x]. *)
let note (st : state) (x : int) (v : Ir.value) : Ir.value =
  st.stamps.(x) <- st.stamp;
  st.resolved.(x) <- v;
  v

(* Resolve destination register id [x], extending the plan.  Returns the
   value consumers should use for it. *)
let rec build_id ~(config : config) (variant : variant) (st : state) (x : int) : Ir.value =
  if st.stamps.(x) = st.stamp then st.resolved.(x)
  else
    let t = st.ctx and env = st.env in
    let dst = t.dst in
    let x' = dst.live.names.(x) in
    (* 1. Directly available at the origin (Algorithm 1, line 4)? *)
    match pick t env variant (Osr_ctx.candidates_of t ~use_aliases:config.use_aliases x) with
    | { cv = Ir.Const _ as c; _ } ->
        (* x' must exist in the landing frame even when every consumer
           could inline the constant: it is live there. *)
        push st.transfers (x', c);
        note st x c
    | { cv = Ir.Reg y; _ } as c ->
        if (not (Osr_ctx.cand_live env c)) && not (kept st y) then push st.keep y;
        push st.transfers (x', c.cv);
        note st x dst.as_cand.(x).cv
    | { cv = Ir.Undef; _ } -> (
        (* 2. Re-execute the destination definition (lines 5–8). *)
        let build_value v =
          match v with
          | Ir.Const _ | Ir.Undef -> v
          | Ir.Reg y -> build ~config variant st y
        in
        match dst.defs.(x) with
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
                | (_, v0) :: rest when List.for_all (fun (_, v) -> Ir.equal_value v v0) rest -> (
                    match build_value v0 with
                    | Ir.Const _ as c ->
                        push st.transfers (x', c);
                        note st x c
                    | Ir.Reg z -> (
                        match transfer_of st z with
                        | Some src_value ->
                            push st.transfers (x', src_value);
                            note st x dst.as_cand.(x).cv
                        | None ->
                            (* z was computed by compensation code: alias
                               with a move. *)
                            push st.comp
                              { target = x'; rhs = Ir.Binop (Ir.Or, Ir.Reg z, Ir.Const 0) };
                            note st x dst.as_cand.(x).cv)
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
                              match Liveness.id_of dst.live y with
                              | Some y -> (
                                  dst.as_cand.(y).akey = Osr_ctx.Always
                                  || match dst.defs.(y) with
                                     | Some (dy : Ir.def_site) ->
                                         Osr_ctx.instr_dominates dst ~def_id:dy.di.id
                                           ~use_id:d_term_id
                                     | None -> false)
                              | None -> false)
                        in
                        if not (always_executed tv && always_executed fv) then
                          raise (Undef x');
                        let cv = build ~config variant st c in
                        let tvv = build_value tv in
                        let fvv = build_value fv in
                        push st.comp { target = x'; rhs = Ir.Select (cv, tvv, fvv) };
                        note st x dst.as_cand.(x).cv)
                | _ -> raise (Undef x'))
            | _ when not (Osr_ctx.reexec_consistent t ~def_id:d.di.id ~landing:st.landing) ->
                (* The definition sits in a loop the landing point is not
                   part of: its operands have advanced past the values of
                   its last execution, so recomputation would be wrong
                   (the frame, via avail, is the only source). *)
                raise (Undef x')
            | Ir.Load _ when not (load_safe st ~def_id:d.di.id) -> raise (Undef x')
            | rhs when Ir.is_reexecutable rhs ->
                let rhs' = Ir.map_rhs_operands build_value rhs in
                push st.comp { target = x'; rhs = rhs' };
                note st x dst.as_cand.(x).cv
            | _ -> raise (Undef x')))

(* Resolve one destination register, extending the plan.  Returns the value
   consumers should use for it. *)
and build ?(config = default_config) (variant : variant) (st : state) (x' : Ir.reg) : Ir.value =
  match Liveness.id_of st.ctx.dst.live x' with
  | Some x -> build_id ~config variant st x
  | None -> raise (Undef x')

(* Resolve every register [each] names into [st]'s plan. *)
let run ~(config : config) (variant : variant) (st : state) (each : (int -> unit) -> unit) :
    (plan, Ir.reg) result =
  match each (fun x -> ignore (build_id ~config variant st x : Ir.value)) with
  | () -> Ok (plan_of_state st)
  | exception Undef x -> Error x

(* [both] on [st], whose plan starts empty. *)
let both_in ~(config : config) (st : state) (each : (int -> unit) -> unit) :
    (plan, Ir.reg) result * (plan, Ir.reg) result =
  let avail = run ~config Avail st each in
  match avail with
  | Error _ -> (avail, avail)
  | Ok ap when ap.keep = [] -> (avail, avail)
  | Ok _ ->
      reset st;
      (run ~config Live st each, avail)

(** Both variants as [(live, avail)] for [targets] at [st]'s point pair,
    usually from a single build.  The [Avail] build is strictly more
    permissive than [Live] in its candidate search and identical elsewhere,
    so (inductively over the resolution recursion): an [Avail] failure
    implies a [Live] failure, and an [Avail] success that never read a dead
    register — empty keep set — made exactly the choices the [Live] build
    would make, plan and all.  Only an [Avail] plan with a non-empty keep
    set pays a second build.  Each build starts from an empty plan (the
    state's own plan is dropped) and shares [st]'s point environment and
    load verdicts, so one state serves any number of calls. *)
let both ?(config = default_config) (st : state) (targets : Ir.reg list) :
    (plan, Ir.reg) result * (plan, Ir.reg) result =
  let dst = st.ctx.dst in
  reset st;
  both_in ~config st (fun f ->
      List.iter
        (fun x' ->
          match Liveness.id_of dst.live x' with Some x -> f x | None -> raise (Undef x'))
        targets)

(** {!both} over every destination register live at [st]'s landing
    point, in name order (the order of the landing's register ids). *)
let both_at_landing ?(config = default_config) (st : state) :
    (plan, Ir.reg) result * (plan, Ir.reg) result =
  reset st;
  match Liveness.bits_at st.ctx.dst.live st.landing with
  | Some live -> both_in ~config st (fun f -> Liveness.Bits.iter f live)
  | None -> both_in ~config st (fun _ -> ())

(** Both variants for one point pair: every destination register live at
    the landing point.  [Error x] when register [x] defeats reconstruction
    (Algorithm 1's [throw undef]). *)
let for_point_both ?(config = default_config) (t : Osr_ctx.t) ~(src_point : int)
    ~(landing : int) : (plan, Ir.reg) result * (plan, Ir.reg) result =
  both_at_landing ~config (fresh_state t ~src_point ~landing)

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
