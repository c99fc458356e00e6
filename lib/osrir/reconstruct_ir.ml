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
      loads guarded by a no-intervening-store path check (Section 5.3).

    A sweep asks for both variants at every point, and {!both} builds them
    in one recursion (see {!state}): the candidate search and the
    re-execution checks run once per register for both variants, and the
    variants part only below a register where [Avail] reads a dead
    candidate. *)

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
  let nb = Array.length index.blocks in
  let dirty (rhs : Ir.rhs) =
    match rhs with
    | Ir.Store _ -> true
    | Ir.Call (name, _) -> not (Ir.is_pure_call name)
    | _ -> false
  in
  let visited = Array.make nb false in
  let exception Unsafe in
  (* Walk the points of block [k] (its body, then its terminator) from
     just after point [after] ([-1] = from the top), stopping at [landing]
     or [def_id]; a walk that runs off the block's end enters its
     successors. *)
  let rec walk_block (k : int) ~(after : int) : unit =
    let b = index.blocks.(k) in
    let rec scan started = function
      | [] ->
          if not (started && (b.term_id = landing || b.term_id = def_id)) then
            List.iter enter index.succs.(k)
      | (i : Ir.instr) :: rest ->
          if not started then scan (i.id = after) rest
          else if i.id = landing then ()  (* window closed on this path *)
          else if i.id = def_id then ()  (* window restarts; later segment covered *)
          else if dirty i.rhs then raise Unsafe
          else scan true rest
    in
    scan (after < 0) b.body
  and enter (k : int) : unit =
    if k < nb && not visited.(k) then begin
      visited.(k) <- true;
      walk_block k ~after:(-1)
    end
  in
  Func_index.is_point index def_id
  &&
  try
    walk_block index.point_block.(def_id) ~after:def_id;
    true
  with Unsafe -> false

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

(* A growable stack of plan entries, reused from build to build: a plan's
   lists are made once, when the build succeeds.  Each entry carries the
   variants whose plan holds it, a mask (bit 1 [a_variant], bit 2 [Live];
   see {!state}). *)
type 'a stack = {
  mutable items : 'a array;
  mutable tags : int array;
  mutable len : int;
  filler : 'a;
}

let stack (filler : 'a) : 'a stack =
  { items = Array.make 16 filler; tags = Array.make 16 0; len = 0; filler }

let push (s : 'a stack) (tag : int) (x : 'a) : unit =
  if s.len = Array.length s.items then begin
    let items = Array.make (2 * s.len) s.filler and tags = Array.make (2 * s.len) 0 in
    Array.blit s.items 0 items 0 s.len;
    Array.blit s.tags 0 tags 0 s.len;
    s.items <- items;
    s.tags <- tags
  end;
  s.items.(s.len) <- x;
  s.tags.(s.len) <- tag;
  s.len <- s.len + 1

(* The entries of the variant [bit], in push order. *)
let to_list (s : 'a stack) (bit : int) : 'a list =
  let l = ref [] in
  for i = s.len - 1 downto 0 do
    if s.tags.(i) land bit <> 0 then l := s.items.(i) :: !l
  done;
  !l

(* The state of one point pair: the pair, what is resolved once per pair,
   and the plans under construction.  A state moves from pair to pair
   ({!retarget}), so a sweep allocates its tables once; the context it
   reads stays immutable.

   One build resolves registers for a set of variants at once, a mask:
   bit 1 is [a_variant] ([Avail] in {!both}, the requested variant in
   {!build}), bit 2 is [Live] (only in {!both}).  The two variants make
   the same choices until the first register where [Avail] takes a dead
   candidate and [Live] has none.  There the build forks ([split]): from
   then on each variant resolves in its own order, with its own memo —
   [Live]'s is [resolved] up to the fork and [live_resolved] after it —
   and every plan entry is tagged with the variants that made it, once
   when both made the same one.  Only [Avail] keeps registers alive, so
   the keep set is bit 1's alone. *)
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
      (** destination register id → bit 1's value for it inside
          compensation operands: [Reg r] for transferred/compensated
          registers (bound in the landing environment) or a
          constant/alias; an entry counts only where [stamps] holds
          [base] (resolved before the fork, for both variants) or
          [base + 1] (after it, for bit 1 alone) *)
  stamps : int array;
  mutable base : int;  (** the current build's; moving it empties [resolved] *)
  mutable live_resolved : Ir.value array;  (** [Live]'s after the fork; made at the first *)
  mutable live_stamps : int array;
  mutable live_stamp : int;  (** the current fork's *)
  operand_ids : int array array;
      (** destination register id → the register ids of its definition's
          operands in the order {!Ir.map_rhs_operands} visits them ([-1]
          a constant or [undef], [-2] a name the function does not
          define); filled the first time the definition is re-executed *)
  mutable a_variant : variant;
  mutable split : bool;  (** the variants have forked in this build *)
  mutable live_failed : bool;  (** [Live] failed in this build, at [live_err] *)
  mutable live_err : Ir.reg;
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
    base = 1;
    live_resolved = [||];
    live_stamps = [||];
    live_stamp = 0;
    operand_ids = Array.make n [||];
    a_variant = Avail;
    split = false;
    live_failed = false;
    live_err = "";
  }

(* Empty [st]'s plans: the next build starts afresh at the same pair. *)
let reset (st : state) : unit =
  st.base <- st.base + 2;
  st.transfers.len <- 0;
  st.comp.len <- 0;
  st.keep.len <- 0;
  st.split <- false;
  st.live_failed <- false

(** Move [st] to another point pair, with an empty plan. *)
let retarget (st : state) ~(src_point : int) ~(landing : int) : unit =
  st.landing <- landing;
  st.env <- Osr_ctx.point_env st.ctx src_point;
  st.load_safe <- [];
  reset st

(* The plan of the variant [bit]. *)
let plan_of (st : state) (bit : int) : plan =
  {
    transfers = to_list st.transfers bit;
    comp = to_list st.comp bit;
    keep = (if bit = 1 then to_list st.keep 1 else []);
  }

let plan_of_state (st : state) : plan = plan_of st 1

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
   and until [Avail] takes a dead candidate both variants make the same
   choices (see {!both}). *)
let rec first_live t env = function
  | [] -> Osr_ctx.no_cand
  | c :: cs ->
      if Osr_ctx.cand_live env c && Osr_ctx.cand_available t env c then c
      else first_live t env cs

let rec first_available t env = function
  | [] -> Osr_ctx.no_cand
  | c :: cs -> if Osr_ctx.cand_available t env c then c else first_available t env cs

(* Is source register [y] in the keep set? *)
let kept (st : state) (y : Ir.reg) : bool =
  let k = st.keep in
  let rec from i = i >= 0 && (String.equal k.items.(i) y || from (i - 1)) in
  from (k.len - 1)

(* The source value the latest transfer of [z] in the plans of [bits]
   reads. *)
let transfer_of (st : state) (bits : int) (z : Ir.reg) : Ir.value option =
  let s = st.transfers in
  let rec from i =
    if i < 0 then None
    else
      let r, v = s.items.(i) in
      if s.tags.(i) land bits <> 0 && String.equal r z then Some v else from (i - 1)
  in
  from (s.len - 1)

(* Has the variant [bit] resolved register id [x]? *)
let has (st : state) (bit : int) (x : int) : bool =
  if bit = 1 || not st.split then st.stamps.(x) >= st.base
  else st.live_stamps.(x) = st.live_stamp || st.stamps.(x) = st.base

(* The variant [bit]'s value for register id [x], once resolved. *)
let value (st : state) (bit : int) (x : int) : Ir.value =
  if bit = 2 && st.split && st.live_stamps.(x) = st.live_stamp then st.live_resolved.(x)
  else st.resolved.(x)

(* The value operand [v] stands for in the variant [bit]. *)
let value_of (st : state) (bit : int) (v : Ir.value) : Ir.value =
  match v with
  | Ir.Const _ | Ir.Undef -> v
  | Ir.Reg y -> (
      match Liveness.id_of st.ctx.dst.live y with Some i -> value st bit i | None -> v)

(* Record [v] as the value of register id [x] for the variants [bits]. *)
let note (st : state) (bits : int) (x : int) (v : Ir.value) : unit =
  if not st.split then begin
    st.stamps.(x) <- st.base;
    st.resolved.(x) <- v
  end
  else begin
    if bits land 1 <> 0 then begin
      st.stamps.(x) <- st.base + 1;
      st.resolved.(x) <- v
    end;
    if bits land 2 <> 0 then begin
      st.live_stamps.(x) <- st.live_stamp;
      st.live_resolved.(x) <- v
    end
  end

(* The operand ids of [rhs], the definition of register id [x] (see
   [operand_ids]). *)
let operand_ids (st : state) (x : int) (rhs : Ir.rhs) : int array =
  let ids = st.operand_ids.(x) in
  if Array.length ids > 0 then ids
  else begin
    let live = st.ctx.dst.live and acc = ref [] in
    ignore
      (Ir.map_rhs_operands
         (fun v ->
           let i =
             match v with
             | Ir.Const _ | Ir.Undef -> -1
             | Ir.Reg y -> ( match Liveness.id_of live y with Some i -> i | None -> -2)
           in
           acc := i :: !acc;
           v)
         rhs
        : Ir.rhs);
    let ids = Array.of_list (List.rev !acc) in
    st.operand_ids.(x) <- ids;
    ids
  end

(* [mask] without [Live] once it has failed. *)
let alive (st : state) (mask : int) : int = if st.live_failed then mask land 1 else mask

(* The variants of [mask] that have not resolved register id [x]. *)
let lacking (st : state) (mask : int) (x : int) : int =
  let mask = alive st mask in
  (if mask land 1 <> 0 && not (has st 1 x) then 1 else 0)
  lor if mask land 2 <> 0 && not (has st 2 x) then 2 else 0

(* The variants part: [Live] gets its own memo. *)
let fork (st : state) : unit =
  let n = Array.length st.resolved in
  if Array.length st.live_stamps < n then begin
    st.live_resolved <- Array.make n Ir.Undef;
    st.live_stamps <- Array.make n 0
  end;
  st.live_stamp <- st.live_stamp + 1;
  st.split <- true

(* Run [f] once for the variants of [mask] that share their choices: once
   for all of them before the fork, once per variant after it. *)
let groups (st : state) (mask : int) (f : int -> unit) : unit =
  if st.split && mask = 3 then begin
    f 1;
    f 2
  end
  else f mask

(* [Live] alone failed; the build goes on for [Avail]. *)
exception Live_failed

(* Register [name] defeats reconstruction for the variants of [mask]:
   when bit 1 is among them the whole build fails (an [Avail] failure
   implies a [Live] failure), otherwise [Live] does. *)
let fail (st : state) (mask : int) (name : Ir.reg) : 'a =
  if mask land 1 <> 0 then raise (Undef name)
  else begin
    st.live_failed <- true;
    st.live_err <- name;
    raise Live_failed
  end

(* Candidate [c] for register id [x] in the plans of [bits]; a [dead]
   one joins the keep set. *)
let take (st : state) ~(dead : bool) (bits : int) (x : int) (x' : Ir.reg) (c : Osr_ctx.cand) : unit =
  match c.cv with
  | Ir.Reg y ->
      if dead && not (kept st y) then push st.keep 1 y;
      push st.transfers bits (x', c.cv);
      note st bits x st.ctx.dst.as_cand.(x).cv
  | k ->
      (* x' must exist in the landing frame even when every consumer could
         inline the constant: it is live there. *)
      push st.transfers bits (x', k);
      note st bits x k

(* Compensation [rhs] for register id [x] in the plans of [bits]. *)
let compensate (st : state) (bits : int) (x : int) (x' : Ir.reg) (rhs : Ir.rhs) : unit =
  push st.comp bits { target = x'; rhs };
  note st bits x st.ctx.dst.as_cand.(x).cv

(* Resolve destination register id [x] for the variants of [mask],
   extending their plans; returns [mask] without [Live] if it failed. *)
let rec resolve ~(config : config) (st : state) (mask : int) (x : int) : int =
  if not st.split then begin
    (* Before the fork the variants share one memo, and [Live] has not
       failed. *)
    if st.stamps.(x) < st.base then resolve_new ~config st mask x;
    alive st mask
  end
  else begin
    (match lacking st mask x with
    | 0 -> ()
    | 2 when mask land 1 <> 0 -> ( try resolve_new ~config st 2 x with Live_failed -> ())
    | m -> resolve_new ~config st m x);
    alive st mask
  end

(* [resolve] for the variants of [mask], none of which has resolved [x]. *)
and resolve_new ~(config : config) (st : state) (mask : int) (x : int) : unit =
  let t = st.ctx and env = st.env in
  let x' = t.dst.live.names.(x) in
  (* 1. Directly available at the origin (Algorithm 1, line 4)?  One
     search serves both variants. *)
  let cands = Osr_ctx.candidates_of t ~use_aliases:config.use_aliases x in
  let live_c = first_live t env cands in
  if live_c != Osr_ctx.no_cand then take st ~dead:false mask x x' live_c
  else
    let a_c =
      if mask land 1 <> 0 && st.a_variant = Avail then first_available t env cands
      else Osr_ctx.no_cand
    in
    if a_c == Osr_ctx.no_cand then
      (* 2. Re-execute the destination definition (lines 5–8). *)
      reexecute ~config st mask x x'
    else if mask = 1 then take st ~dead:true 1 x x' a_c
    else begin
      (* [Avail] takes a dead candidate, [Live] has none: the variants
         part here, if they have not yet. *)
      if not st.split then fork st;
      take st ~dead:true 1 x x' a_c;
      try reexecute ~config st 2 x x' with Live_failed -> ()
    end

(* Resolve operand [v] for the variants of [mask]. *)
and operand ~(config : config) (st : state) (mask : int) (v : Ir.value) : int =
  match v with
  | Ir.Const _ | Ir.Undef -> mask
  | Ir.Reg y -> (
      match Liveness.id_of st.ctx.dst.live y with
      | Some i -> resolve ~config st mask i
      | None -> fail st mask y)

and reexecute ~(config : config) (st : state) (mask : int) (x : int) (x' : Ir.reg) : unit =
  let t = st.ctx in
  let dst = t.dst in
  match dst.defs.(x) with
  | None -> fail st mask x'
  | Some (d : Ir.def_site) -> (
      match d.di.rhs with
      | Ir.Phi _ when not config.constant_phi -> fail st mask x'
      | Ir.Phi incoming -> (
          (* Constant-φ identification (Section 5.4): all incomings
             syntactically equal — LCSSA φ-nodes and the like.  The φ
             result still needs its own binding in the landing frame;
             reuse the incoming's source value when it was a plain
             transfer (zero extra instructions), fall back to a register
             move when it was compensated. *)
          match incoming with
          | (_, v0) :: rest when List.for_all (fun (_, v) -> Ir.equal_value v v0) rest ->
              let mask = operand ~config st mask v0 in
              groups st mask (fun bits ->
                  match value_of st (bits land -bits) v0 with
                  | Ir.Const _ as c ->
                      push st.transfers bits (x', c);
                      note st bits x c
                  | Ir.Reg z -> (
                      match transfer_of st bits z with
                      | Some src_value ->
                          push st.transfers bits (x', src_value);
                          note st bits x dst.as_cand.(x).cv
                      | None ->
                          (* z was computed by compensation code: alias
                             with a move. *)
                          compensate st bits x x' (Ir.Binop (Ir.Or, Ir.Reg z, Ir.Const 0)))
                  | Ir.Undef ->
                      if bits land 1 <> 0 || mask = 2 then fail st bits x'
                      else begin
                        (* [Live] alone fails here; [Avail] goes on. *)
                        st.live_failed <- true;
                        st.live_err <- x'
                      end)
          | incoming
            when config.gating && Osr_ctx.reexec_consistent t ~def_id:d.di.id ~landing:st.landing -> (
              (* Gating reconstruction: rebuild the φ as a select over its
                 governing branch condition. *)
              match gate_of_phi t ~phi_block:d.block incoming with
              | None -> fail st mask x'
              | Some (c, tv, fv, d_term_id) ->
                  (* Both incomings must have been computed before the
                     branch (defs dominate d's terminator), so the frame
                     holds them on either path. *)
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
                                   Dom.instr_dominates dst.dom ~def_id:dy.di.id ~use_id:d_term_id
                               | None -> false)
                        | None -> false)
                  in
                  if not (always_executed tv && always_executed fv) then fail st mask x';
                  let mask = operand ~config st mask (Ir.Reg c) in
                  let mask = operand ~config st mask tv in
                  let mask = operand ~config st mask fv in
                  groups st mask (fun bits ->
                      let bit = bits land -bits in
                      compensate st bits x x'
                        (Ir.Select (value_of st bit (Ir.Reg c), value_of st bit tv, value_of st bit fv))))
          | _ -> fail st mask x')
      | _ when not (Osr_ctx.reexec_consistent t ~def_id:d.di.id ~landing:st.landing) ->
          (* The definition sits in a loop the landing point is not part
             of: its operands have advanced past the values of its last
             execution, so recomputation would be wrong (the frame, via
             avail, is the only source). *)
          fail st mask x'
      | Ir.Load _ when not (load_safe st ~def_id:d.di.id) -> fail st mask x'
      | rhs when Ir.is_reexecutable rhs ->
          (* The operands resolve in [map_rhs_operands] order, as one
             variant's build would; the rhs of the lowest variant is made
             on the way, [Live]'s after a fork from its own values, and one
             entry serves both when the two agree. *)
          let ids = operand_ids st x rhs in
          let bit = mask land -mask in
          let m = ref mask and k = ref 0 in
          let rhs' =
            Ir.map_rhs_operands
              (fun v ->
                let i = ids.(!k) in
                incr k;
                match v with
                | Ir.Const _ | Ir.Undef -> v
                | Ir.Reg y ->
                    if i < 0 then fail st !m y;
                    m := resolve ~config st !m i;
                    value st bit i)
              rhs
          in
          let m = !m in
          if st.split && m = 3 then begin
            k := 0;
            let live_rhs =
              Ir.map_rhs_operands
                (fun v ->
                  let i = ids.(!k) in
                  incr k;
                  if i >= 0 then value st 2 i else v)
                rhs
            in
            if Ir.equal_rhs rhs' live_rhs then compensate st 3 x x' rhs'
            else begin
              compensate st 1 x x' rhs';
              compensate st 2 x x' live_rhs
            end
          end
          else compensate st m x x' rhs'
      | _ -> fail st mask x')

(** Resolve one destination register for [variant], extending the
    state's plan.  Returns the value consumers should use for it. *)
let build ?(config = default_config) (variant : variant) (st : state) (x' : Ir.reg) : Ir.value =
  match Liveness.id_of st.ctx.dst.live x' with
  | Some x ->
      st.a_variant <- variant;
      ignore (resolve ~config st 1 x : int);
      st.resolved.(x)
  | None -> raise (Undef x')

(* [both] on [st], whose plans start empty: one build for both variants. *)
let both_in ~(config : config) (st : state) (each : (int -> unit) -> unit) :
    (plan, Ir.reg) result * (plan, Ir.reg) result =
  st.a_variant <- Avail;
  match each (fun x -> ignore (resolve ~config st 3 x : int)) with
  | () ->
      let avail = Ok (plan_of st 1) in
      if not st.split then (avail, avail)
      else if st.live_failed then (Error st.live_err, avail)
      else (Ok (plan_of st 2), avail)
  | exception Undef x -> (Error x, Error x)

(** Both variants as [(live, avail)] for [targets] at [st]'s point pair,
    from one build.  The [Avail] build is strictly more permissive than
    [Live] in its candidate search and identical elsewhere, so
    (inductively over the resolution recursion) the two make the same
    choices until [Avail] first takes a dead candidate where [Live] has
    none; up to there the [Live] plan is the [Avail] plan's prefix, and an
    [Avail] failure implies a [Live] failure.  The build resolves each
    register once for both variants, forks at that first register
    (see {!state}), and from there resolves for each variant in the order
    its own build would, sharing the plan entries and the search where the
    two agree: every plan and failing register is the one of two separate
    builds.  Each call starts from empty plans and
    shares [st]'s point environment and load verdicts, so one state serves
    any number of calls. *)
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
                  match Passes.Fold.binop op x y with
                  | v -> v
                  | exception Passes.Fold.Undefined -> raise (Bad target))
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
