(** The front half of the JIT path as it was before its one-scan
    rewrites: CP, SCCP, CSE, LCSSA, Sink, mem2reg, the SSA verifier,
    [Dom.compute], the pass manager's [apply] that calls the verifier, and
    the source-point remap of [Dsl.to_fbase].  Each function below is a verbatim copy of the code it
    replaced; the only edits are references to other replaced code, which
    point at the copies here instead ([exit_targets], [dom_compute],
    [Verifier], [pm_to_fbase]), names qualified to compile outside
    their module, and the pass calling convention: [Lcssa.run] takes the
    mapper as a required argument (the body still sees the optional mapper
    it was written for).  [apply] is copied too because it calls the
    verifier.  [Suite_front] runs both versions side by side and asserts
    every observable is byte-identical.

    Since the dense [Func_index]: the copies read the frozen index,
    dominator queries and definition table of {!Ref_miniir}
    ([Func_index], [Dom] includes [Ref_miniir.Dom], [Lcssa] calls
    [Ref_miniir.def_table]), not the library's; [Lcssa]'s dominance
    queries on its loops call [Miniir.Dom.dominates_block], the library
    tree those loops carry.

    Since the pass layer lost its analysis manager: [apply] runs without
    one (its creation and invalidation calls are gone, and the change flag
    they read is bound to [_changed]), and [Lcssa.run] computes its loops
    as [Loops.compute (Dom.compute (Func_index.make f))] over the
    library's modules instead of asking the manager for them.

    Since the passes number registers once per run: [Sccp] and [Sink] are
    verbatim copies of those passes as they were on their name-keyed
    tables, after SCCP's constant rewrite took definition order.  Their
    edits: [Sccp] reads [Ref_miniir.def_table] (a [Hashtbl], so its lookup
    is [Hashtbl.find_opt]) and the frozen [Func_index], and [Sink] builds
    its tree with this file's [Dom.compute ~index f].

    Since SCCP drops the φ incomings of the edges it folds away: the fix
    is made in [Sccp] here too (the [folded] list and the loop over it
    after step 3).  Before it, folding a bottom-tested loop's back edge
    left the header's φs an incoming from a block that no longer branches
    there, which the verifier rejects.

    Since CP scans no block per visited instruction and CSE carries out
    its replaces lazily: [Constprop] and [Cse] are verbatim copies of
    those passes as they were; their edits: the counters are the
    library's ([Passes.Constprop.stat_folded] and so on, so a run bumps
    the same rows), and [Cse] builds its dominator tree with the
    library's [Dom] and [Func_index] and reads [Passes.Mem2reg]'s tree
    children.  [standard_pipeline] runs the copies of CP, SCCP, CSE,
    LCSSA and Sink. *)

module Ir = Miniir.Ir
module Func_index = Ref_miniir.Func_index
module Loops = Miniir.Loops
module Code_mapper = Passes.Code_mapper
module Pass_manager = Passes.Pass_manager

(* ------------------------------------------------------------------ *)
(* Dom.compute                                                          *)
(* ------------------------------------------------------------------ *)

module Dom = struct
  include Ref_miniir.Dom

let compute ?(index : Func_index.t option) (f : Ir.func) : t =
  let index = match index with Some i -> i | None -> Func_index.make f in
  let preds = Hashtbl.create 16 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace preds b.label []) f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt preds s with
          | Some ps -> Hashtbl.replace preds s (b.label :: ps)
          | None -> ())
        (Ir.successors b))
    f.blocks;
  (* Reverse postorder from the entry. *)
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.add visited label ();
      (match Func_index.find_block index label with
      | Some b -> List.iter dfs (Ir.successors b)
      | None -> ());
      post := label :: !post
    end
  in
  dfs (Ir.entry f).label;
  let order = Array.of_list !post in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  let n = Array.length order in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect i j =
    let i = ref i and j = ref j in
    while !i <> !j do
      while !i > !j do
        i := idom.(!i)
      done;
      while !j > !i do
        j := idom.(!j)
      done
    done;
    !i
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let label = order.(i) in
      let ps =
        List.filter_map (fun p -> Hashtbl.find_opt index p)
          (Option.value ~default:[] (Hashtbl.find_opt preds label))
      in
      let processed = List.filter (fun p -> idom.(p) >= 0) ps in
      match processed with
      | [] -> ()
      | first :: rest ->
          let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
          if idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
    done
  done;
  (* Euler tour of the dominator tree (children from the idom array). *)
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    if idom.(i) >= 0 then children.(idom.(i)) <- i :: children.(idom.(i))
  done;
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let rec tour i =
    tin.(i) <- !clock;
    incr clock;
    List.iter tour children.(i);
    tout.(i) <- !clock;
    incr clock
  in
  if n > 0 then tour 0;
  { func = f; order; index; idom; preds; tin; tout }
end

let dom_compute = Dom.compute

(* ------------------------------------------------------------------ *)
(* SSA verifier                                                         *)
(* ------------------------------------------------------------------ *)

module Verifier = struct
  type error = Miniir.Verifier.error = { where : string; what : string }

  let pp_error = Miniir.Verifier.pp_error

let verify (f : Ir.func) : (unit, error list) result =
  let index = Func_index.make f in
  let errs = ref [] in
  let err where fmt = Printf.ksprintf (fun what -> errs := { where; what } :: !errs) fmt in
  (* Labels unique *)
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if Hashtbl.mem labels b.label then err b.label "duplicate block label"
      else Hashtbl.add labels b.label ())
    f.blocks;
  (* Terminator targets exist *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s -> if not (Hashtbl.mem labels s) then err b.label "branch to unknown block %s" s)
        (Ir.successors b))
    f.blocks;
  (* Instruction ids unique; registers single-assignment *)
  let ids = Hashtbl.create 64 in
  let defs = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defs p `Param) f.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if Hashtbl.mem ids i.id then err b.label "duplicate instruction id %d" i.id
          else Hashtbl.add ids i.id ();
          match i.result with
          | Some r ->
              if Hashtbl.mem defs r then err b.label "register %%%s defined twice" r
              else Hashtbl.replace defs r `Instr
          | None -> ())
        (Ir.block_instrs b);
      if Hashtbl.mem ids b.term_id then err b.label "duplicate terminator id %d" b.term_id
      else Hashtbl.add ids b.term_id ())
    f.blocks;
  (* φ shape: one incoming per predecessor, and only among phis *)
  List.iter
    (fun (b : Ir.block) ->
      let preds = List.sort_uniq compare (Func_index.predecessors index b.label) in
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming ->
              let inc = List.sort_uniq compare (List.map fst incoming) in
              if inc <> preds then
                err b.label "phi #%d incoming {%s} but predecessors {%s}" i.id
                  (String.concat "," inc) (String.concat "," preds)
          | _ -> err b.label "non-phi instruction #%d in phi section" i.id)
        b.phis;
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi _ -> err b.label "phi #%d in body section" i.id
          | _ -> ())
        b.body)
    f.blocks;
  (* Entry: no phis, no predecessors *)
  (match f.blocks with
  | e :: _ ->
      if e.phis <> [] then err e.label "entry block has phi-nodes";
      if Func_index.predecessors index e.label <> [] then err e.label "entry block has predecessors"
  | [] -> err f.fname "function has no blocks");
  (* Dominance of uses (only meaningful if structure is sane so far) *)
  if !errs = [] then begin
    let dom = Dom.compute ~index f in
    let positions = index.Func_index.positions in
    let def_tbl = index.Func_index.defs in
    let def_id_of r = Option.map (fun (d : Ir.def_site) -> d.di.id) (Hashtbl.find_opt def_tbl r) in
    let check_use (b : Ir.block) (use_id : int) (r : Ir.reg) =
      if not (List.mem r f.params) then
        match def_id_of r with
        | None -> err b.label "use of undefined register %%%s at #%d" r use_id
        | Some def_id ->
            if Dom.reachable dom b.label
               && not (Dom.instr_dominates dom positions ~def_id ~use_id)
            then err b.label "use of %%%s at #%d not dominated by its definition #%d" r use_id def_id
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                (* φ incomings must be defined at the end of their pred. *)
                List.iter
                  (fun (pred, v) ->
                    match v with
                    | Ir.Reg r when not (List.mem r f.params) -> (
                        match Hashtbl.find_opt def_tbl r with
                        | None -> err b.label "phi #%d reads undefined %%%s" i.id r
                        | Some d ->
                            if Dom.reachable dom pred
                               && not (Dom.dominates_block dom ~a:d.block ~b:pred)
                            then
                              err b.label "phi #%d incoming %%%s from %s not available there"
                                i.id r pred)
                    | Ir.Reg _ | Ir.Const _ | Ir.Undef -> ())
                  incoming
            | _ -> List.iter (check_use b i.id) (Ir.rhs_uses i.rhs))
          (Ir.block_instrs b);
        List.iter (check_use b b.term_id) (Ir.term_uses b.term))
      f.blocks
  end;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

(** Raise [Failure] with a readable message if verification fails. *)
let verify_exn (f : Ir.func) : unit =
  match verify f with
  | Ok () -> ()
  | Error es ->
      failwith
        (Fmt.str "IR verification failed for @%s:@.%a@.%s" f.fname
           (Fmt.list ~sep:Fmt.cut Miniir.Verifier.pp_error) es (Ir.func_to_string f))
end

(* ------------------------------------------------------------------ *)
(* LCSSA                                                                *)
(* ------------------------------------------------------------------ *)

module Lcssa = struct

(** Blocks outside the loop that the loop branches to. *)
let exit_targets (f : Ir.func) (l : Loops.loop) : string list =
  List.sort_uniq compare
    (List.concat_map
       (fun label ->
         match Ir.find_block f label with
         | Some b -> List.filter (fun s -> not (Loops.in_loop l s)) (Ir.successors b)
         | None -> [])
       l.body)

let run (mapper : Code_mapper.t) (f : Ir.func) : bool =
  let mapper = Some mapper in
  let changed = ref false in
  let loop_info = Loops.compute (Miniir.Dom.compute (Miniir.Func_index.make f)) in
  (* φ insertion never adds or removes blocks or edges, so [loop_info.dom]
     stays valid for every dominance query below.  The def table only gains
     entries (each inserted φ defines a fresh register) and existing sites
     never move, so one table serves the whole pass. *)
  let def_tbl = Ref_miniir.def_table f in
  List.iter
    (fun (l : Loops.loop) ->
      let exits = exit_targets f l in
      (* Values defined in the loop. *)
      let defined_in_loop =
        List.concat_map
          (fun label ->
            match Ir.find_block f label with
            | Some b ->
                List.filter_map (fun (i : Ir.instr) -> i.result) (Ir.block_instrs b)
            | None -> [])
          l.body
      in
      List.iter
        (fun (r : Ir.reg) ->
          (* Uses outside the loop? *)
          let outside_users =
            List.concat_map
              (fun (b : Ir.block) ->
                if Loops.in_loop l b.label then
                  (* φ-nodes in the header reading r from a latch are inside
                     uses; skip the whole block. *)
                  []
                else
                  List.filter
                    (fun (i : Ir.instr) -> List.mem r (Ir.rhs_uses i.rhs))
                    (Ir.block_instrs b)
                  |> List.map (fun i -> (b, i)))
              f.blocks
            @ List.filter_map
                (fun (b : Ir.block) ->
                  if (not (Loops.in_loop l b.label)) && List.mem r (Ir.term_uses b.term) then
                    Some (b, { Ir.id = b.term_id; result = None; rhs = Ir.Alloca 0 })
                  else None)
                f.blocks
          in
          if outside_users <> [] then begin
            (* Insert one φ per exit block that the value flows through.
               For simplicity we insert in every exit whose predecessors
               include a loop block dominating... conservatively: exits
               reachable from the definition; each gets a φ with one
               incoming per loop-predecessor edge. *)
            List.iter
              (fun exit_label ->
                match Ir.find_block f exit_label with
                | None -> ()
                | Some eb ->
                    let loop_preds =
                      List.filter (Loops.in_loop l) (Ir.predecessors f exit_label)
                    in
                    if loop_preds <> [] then begin
                      (* Only legal if r is available at those edges; we rely
                         on the definition dominating the exit (checked via
                         the verifier after the pass; if it does not, skip). *)
                      match Hashtbl.find_opt def_tbl r with
                      | Some (d : Ir.def_site)
                        when List.for_all
                               (fun p ->
                                 Miniir.Dom.dominates_block loop_info.dom ~a:d.block ~b:p)
                               loop_preds ->
                          (* All exit preds must come from the loop for the φ
                             to be well-formed with a single φ; otherwise skip. *)
                          if
                            List.for_all (Loops.in_loop l) (Ir.predecessors f exit_label)
                          then begin
                            let phi =
                              {
                                Ir.id = Ir.fresh_id f;
                                result = Some (Ir.fresh_reg ~hint:(r ^ ".lcssa") f);
                                rhs =
                                  Ir.Phi
                                    (List.map
                                       (fun p -> (p, Ir.Reg r))
                                       (Ir.predecessors f exit_label));
                              }
                            in
                            let phi_reg = Option.get phi.result in
                            eb.phis <- eb.phis @ [ phi ];
                            (* The φ alone already mutates the function, even
                               if no outside use ends up rewritten below —
                               report the change or cached analyses go stale. *)
                            changed := true;
                            Option.iter
                              (fun m -> Code_mapper.add_instr m phi ~block:exit_label)
                              mapper;
                            (* Rewrite outside uses dominated by this exit. *)
                            List.iter
                              (fun ((ub : Ir.block), (ui : Ir.instr)) ->
                                if
                                  Miniir.Dom.dominates_block loop_info.dom ~a:exit_label
                                    ~b:ub.label
                                  && ui.id <> phi.id
                                then begin
                                  let subst v =
                                    if Ir.equal_value v (Ir.Reg r) then Ir.Reg phi_reg else v
                                  in
                                  if ui.result = None && ui.rhs = Ir.Alloca 0 then
                                    (* marker for a terminator use *)
                                    ub.term <- Ir.map_term_operands subst ub.term
                                  else ui.rhs <- Ir.map_rhs_operands subst ui.rhs;
                                  Option.iter
                                    (fun m ->
                                      Code_mapper.replace_use_in m ~inst:ui
                                        ~old_value:(Ir.Reg r) ~new_value:(Ir.Reg phi_reg))
                                    mapper;
                                  changed := true
                                end)
                              outside_users
                          end
                      | _ -> ()
                    end)
              exits
          end)
        (List.sort_uniq String.compare defined_in_loop))
    loop_info.loops;
  !changed
end

(* ------------------------------------------------------------------ *)
(* SCCP                                                                 *)
(* ------------------------------------------------------------------ *)

module Sccp = struct
module Fold = Passes.Fold

(** Sparse conditional constant propagation (SCCP), after Wegman–Zadeck:
    an optimistic lattice analysis over SSA that simultaneously tracks
    constant values and edge executability, then

    - replaces registers proven constant and deletes their definitions,
    - folds conditional branches whose condition is constant,
    - removes unreachable blocks (the bulk of SCCP's effect on ffmpeg in
      the paper's Table 2), and
    - simplifies φ-nodes left with a single incoming edge.

    OSR-aware: replaces and deletes are recorded in the CodeMapper. *)

type lattice = Top | Const of int | Bottom

let meet (a : lattice) (b : lattice) : lattice =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y -> if x = y then Const x else Bottom
  | Bottom, _ | _, Bottom -> Bottom

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let changed = ref false in
  let state : (Ir.reg, lattice) Hashtbl.t = Hashtbl.create 64 in
  let get_state r =
    if List.mem r f.params then Bottom
    else Option.value ~default:Top (Hashtbl.find_opt state r)
  in
  let value_lattice = function
    | Ir.Const n -> Const n
    | Ir.Reg r -> get_state r
    | Ir.Undef -> Bottom
  in
  let exec_blocks : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let exec_edges : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let block_work = Queue.create () in
  let instr_work = Queue.create () in
  let def_tbl = Ref_miniir.def_table f in
  (* The analysis and the constant rewrite (step 1 below) leave the block
     list alone; blocks go only in step 3, after the last lookup. *)
  let index = Func_index.make f in
  (* users table: reg → instructions reading it (plus terminator owners) *)
  let users : (Ir.reg, [ `I of Ir.instr | `T of Ir.block ] list) Hashtbl.t = Hashtbl.create 64 in
  let add_user r u =
    Hashtbl.replace users r (u :: Option.value ~default:[] (Hashtbl.find_opt users r))
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) -> List.iter (fun r -> add_user r (`I i)) (Ir.rhs_uses i.rhs))
        (Ir.block_instrs b);
      List.iter (fun r -> add_user r (`T b)) (Ir.term_uses b.term))
    f.blocks;
  let mark_edge src dst =
    if not (Hashtbl.mem exec_edges (src, dst)) then begin
      Hashtbl.add exec_edges (src, dst) ();
      (* Re-evaluate φ-nodes of dst (new incoming became executable). *)
      (match Func_index.find_block index dst with
      | Some db -> List.iter (fun i -> Queue.push i instr_work) db.phis
      | None -> ());
      if not (Hashtbl.mem exec_blocks dst) then begin
        Hashtbl.add exec_blocks dst ();
        Queue.push dst block_work
      end
    end
  in
  (* Uniform work-item queue wrapping instructions and terminators. *)
  let instr_queue : [ `Instr of Ir.instr * string | `Term of Ir.block ] Queue.t = Queue.create () in
  let push_users r =
    List.iter
      (fun u ->
        match u with
        | `I j -> (
            match Func_index.owner_of index j.Ir.id with
            | Some bl -> Queue.push (`Instr (j, bl)) instr_queue
            | None -> ())
        | `T b -> Queue.push (`Term b) instr_queue)
      (Option.value ~default:[] (Hashtbl.find_opt users r))
  in
  let set_state (i : Ir.instr) (l : lattice) =
    match i.result with
    | None -> ()
    | Some r ->
        let old = get_state r in
        let next = if old = Top then l else meet old l in
        if next <> old then begin
          Hashtbl.replace state r next;
          push_users r
        end
  in
  let eval_instr (i : Ir.instr) (block : string) =
    match i.rhs with
    | Ir.Phi incoming ->
        let l =
          List.fold_left
            (fun acc (pred, v) ->
              if Hashtbl.mem exec_edges (pred, block) then meet acc (value_lattice v) else acc)
            Top incoming
        in
        set_state i l
    | Ir.Binop (op, a, b) -> (
        match (value_lattice a, value_lattice b) with
        | Const x, Const y -> (
            match Fold.eval_binop op x y with
            | Some n -> set_state i (Const n)
            | None -> set_state i Bottom)
        | Bottom, _ | _, Bottom -> set_state i Bottom
        | Top, _ | _, Top -> ())
    | Ir.Icmp (op, a, b) -> (
        match (value_lattice a, value_lattice b) with
        | Const x, Const y -> set_state i (Const (Fold.eval_icmp op x y))
        | Bottom, _ | _, Bottom -> set_state i Bottom
        | Top, _ | _, Top -> ())
    | Ir.Select (c, t, e) -> (
        match value_lattice c with
        | Const k -> set_state i (value_lattice (if k <> 0 then t else e))
        | Bottom -> set_state i (meet (value_lattice t) (value_lattice e))
        | Top -> ())
    | Ir.Call (name, args) when Ir.is_pure_call name -> (
        let arg_lats = List.map value_lattice args in
        if List.exists (fun l -> l = Bottom) arg_lats then set_state i Bottom
        else if List.for_all (function Const _ -> true | _ -> false) arg_lats then
          let consts = List.map (function Const n -> n | _ -> 0) arg_lats in
          match Fold.eval_intrinsic name consts with
          | Some n -> set_state i (Const n)
          | None -> set_state i Bottom
        else ())
    | Ir.Load _ | Ir.Call _ | Ir.Alloca _ -> set_state i Bottom
    | Ir.Store _ -> ()
  in
  let eval_term (b : Ir.block) =
    match b.term with
    | Ir.Br l -> mark_edge b.label l
    | Ir.Cbr (c, t, e) -> (
        match value_lattice c with
        | Const k -> mark_edge b.label (if k <> 0 then t else e)
        | Bottom ->
            mark_edge b.label t;
            mark_edge b.label e
        | Top -> ())
    | Ir.Ret _ | Ir.Unreachable -> ()
  in
  (* Seed with the entry block. *)
  let entry_label = (Ir.entry f).label in
  Hashtbl.add exec_blocks entry_label ();
  Queue.push entry_label block_work;
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    while not (Queue.is_empty block_work) do
      continue_ := true;
      let label = Queue.pop block_work in
      let b = Func_index.block_exn index label in
      List.iter (fun i -> eval_instr i label) (Ir.block_instrs b);
      eval_term b
    done;
    while not (Queue.is_empty instr_queue) do
      continue_ := true;
      match Queue.pop instr_queue with
      | `Instr (i, bl) -> if Hashtbl.mem exec_blocks bl then eval_instr i bl
      | `Term b -> if Hashtbl.mem exec_blocks b.Ir.label then eval_term b
    done;
    (* φ re-evaluations queued by mark_edge land in instr_work; drain. *)
    while not (Queue.is_empty instr_work) do
      continue_ := true;
      let i = Queue.pop instr_work in
      match Func_index.owner_of index i.Ir.id with
      | Some bl -> if Hashtbl.mem exec_blocks bl then eval_instr i bl
      | None -> ()
    done
  done;
  (* --- Rewrite phase ------------------------------------------------- *)
  (* 1. Materialize constants, in definition order: block order, then
     φ-nodes, then body. *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.result with
          | None -> ()
          | Some r -> (
              match Hashtbl.find_opt state r with
              | Some (Const n) -> (
                  match Hashtbl.find_opt def_tbl r with
                  | Some (d : Ir.def_site) when d.di == i && not (Ir.has_side_effects d.di.rhs) ->
                      Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r)
                        ~new_value:(Ir.Const n);
                      Code_mapper.delete_instr m d.di;
                      let blk = Func_index.block_exn index d.block in
                      blk.phis <- List.filter (fun (j : Ir.instr) -> j.id <> d.di.id) blk.phis;
                      blk.body <- List.filter (fun (j : Ir.instr) -> j.id <> d.di.id) blk.body;
                      changed := true
                  | _ -> ())
              | Some (Top | Bottom) | None -> ()))
        (Ir.block_instrs b))
    f.blocks;
  (* 2. Fold conditional branches with constant or one-sided conditions. *)
  let folded = ref [] in
  let fold (b : Ir.block) ~keep ~drop =
    b.term <- Ir.Br keep;
    if not (String.equal keep drop) then folded := (b.label, drop) :: !folded;
    changed := true
  in
  List.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Ir.Cbr (Ir.Const k, t, e) -> if k <> 0 then fold b ~keep:t ~drop:e else fold b ~keep:e ~drop:t
      | Ir.Cbr (_, t, e) when Hashtbl.mem exec_blocks b.label -> (
          let t_exec = Hashtbl.mem exec_edges (b.label, t) in
          let e_exec = Hashtbl.mem exec_edges (b.label, e) in
          match (t_exec, e_exec) with
          | true, false -> fold b ~keep:t ~drop:e
          | false, true -> fold b ~keep:e ~drop:t
          | _, _ -> ())
      | _ -> ())
    f.blocks;
  (* 3. Remove unreachable blocks. *)
  let removed =
    List.filter (fun (b : Ir.block) -> not (Hashtbl.mem exec_blocks b.label)) f.blocks
  in
  if removed <> [] then begin
    changed := true;
    List.iter
      (fun (b : Ir.block) ->
        List.iter (Code_mapper.delete_instr m) (Ir.block_instrs b))
      removed;
    let removed_labels = List.map (fun (b : Ir.block) -> b.label) removed in
    f.blocks <- List.filter (fun (b : Ir.block) -> not (List.mem b.label removed_labels)) f.blocks;
    (* Drop φ incomings from removed predecessors. *)
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                i.rhs <- Ir.Phi (List.filter (fun (l, _) -> not (List.mem l removed_labels)) incoming)
            | _ -> ())
          b.phis)
      f.blocks
  end;
  List.iter
    (fun (pred, target) ->
      match Ir.find_block f target with
      | Some (tb : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.rhs with
              | Ir.Phi incoming ->
                  i.rhs <- Ir.Phi (List.filter (fun (l, _) -> not (String.equal l pred)) incoming)
              | _ -> ())
            tb.phis
      | None -> ())
    !folded;
  (* 4. Simplify φ-nodes left with a single incoming. *)
  List.iter
    (fun (b : Ir.block) ->
      b.phis <-
        List.filter
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with
            | Ir.Phi [ (_, v) ], Some r ->
                Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v;
                Code_mapper.delete_instr m i;
                changed := true;
                false
            | _ -> true)
          b.phis)
    f.blocks;
  !changed
end

(* ------------------------------------------------------------------ *)
(* Sink                                                                 *)
(* ------------------------------------------------------------------ *)

module Sink = struct

(** Code sinking (the paper's Sink): move a pure instruction whose uses all
    sit in a single dominated block down into that block, shrinking live
    ranges across branches.

    Rules: only non-trapping pure rhs (nothing {!Ir.may_trap} accepts —
    sinking may skip a trap the original executed — and no loads —
    sinking past a store would change the value); no uses in φ-nodes or
    terminators; the destination must be a different block dominated by
    the defining block (so operands and the moved definition still
    dominate every use).  OSR-aware: each motion is recorded as a [sink]
    action. *)

let sinkable_rhs (rhs : Ir.rhs) : bool =
  (not (Ir.may_trap rhs))
  &&
  match rhs with
  | Ir.Binop _ | Ir.Icmp _ | Ir.Select _ -> true
  | Ir.Call (name, _) -> Ir.is_pure_call name
  | Ir.Load _ | Ir.Store _ | Ir.Alloca _ | Ir.Phi _ -> false

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let changed = ref false in
  (* Sinking moves instructions but never touches blocks or edges, so one
     index and its dominator tree serve every fixpoint iteration. *)
  let index = Func_index.make f in
  let dom = Dom.compute ~index f in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    (* Collect use sites per register. *)
    let uses : (Ir.reg, [ `Body of string | `Phi | `Term ] list) Hashtbl.t = Hashtbl.create 64 in
    let add_use r site =
      Hashtbl.replace uses r (site :: Option.value ~default:[] (Hashtbl.find_opt uses r))
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter (fun (i : Ir.instr) -> List.iter (fun r -> add_use r `Phi) (Ir.rhs_uses i.rhs)) b.phis;
        List.iter
          (fun (i : Ir.instr) ->
            List.iter (fun r -> add_use r (`Body b.label)) (Ir.rhs_uses i.rhs))
          b.body;
        List.iter (fun r -> add_use r `Term) (Ir.term_uses b.term))
      f.blocks;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            if List.exists (fun (j : Ir.instr) -> j.id = i.id) b.body && sinkable_rhs i.rhs then
              match i.result with
              | None -> ()
              | Some r -> (
                  match Hashtbl.find_opt uses r with
                  | Some sites when sites <> [] ->
                      let only_bodies =
                        List.filter_map (function `Body l -> Some l | `Phi | `Term -> None) sites
                      in
                      if List.length only_bodies = List.length sites then begin
                        match List.sort_uniq compare only_bodies with
                        | [ target ]
                          when (not (String.equal target b.label))
                               && Dom.strictly_dominates_block dom ~a:b.label ~b:target ->
                            let tb = Func_index.block_exn index target in
                            b.body <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.body;
                            tb.body <- i :: tb.body;
                            Code_mapper.sink_instr m i ~from_block:b.label ~to_block:target;
                            changed := true;
                            continue_ := true
                        | _ -> ()
                      end
                  | Some _ | None -> ()))
          b.body)
      f.blocks
  done;
  !changed
end

(* ------------------------------------------------------------------ *)
(* mem2reg                                                              *)
(* ------------------------------------------------------------------ *)

module Mem2reg = struct
module SMap = Map.Make (String)

(* Is this alloca promotable?  Its address must only appear as the address
   operand of loads and stores. *)
let promotable (f : Ir.func) (slot : Ir.reg) : bool =
  let ok = ref true in
  let check_value v = match v with Ir.Reg r when String.equal r slot -> ok := false | _ -> () in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Load (Ir.Reg r) when String.equal r slot -> ()
          | Ir.Store (v, Ir.Reg r) when String.equal r slot -> check_value v
          | rhs -> List.iter check_value (Ir.rhs_operands rhs))
        (Ir.block_instrs b);
      List.iter check_value (Ir.term_operands b.term))
    f.blocks;
  !ok

(* Dominator-tree children, from the CHK idom array. *)
let dom_children (dom : Dom.t) : (string, string list) Hashtbl.t =
  let children = Hashtbl.create 16 in
  Array.iteri
    (fun i label ->
      if i > 0 && dom.idom.(i) >= 0 then begin
        let parent = dom.order.(dom.idom.(i)) in
        let cur = Option.value ~default:[] (Hashtbl.find_opt children parent) in
        Hashtbl.replace children parent (label :: cur)
      end)
    dom.order;
  children

let run (f : Ir.func) : bool =
  let slots =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with
            | Ir.Alloca 1, Some r when promotable f r -> Some (r, i.id)
            | _ -> None)
          b.body)
      f.blocks
  in
  if slots = [] then false
  else begin
    let slot_names = List.map fst slots in
    let dom = dom_compute f in
    let df = Dom.frontiers dom in
    let children = dom_children dom in
    (* Blocks storing to each slot. *)
    let def_blocks slot =
      List.filter_map
        (fun (b : Ir.block) ->
          let stores =
            List.exists
              (fun (i : Ir.instr) ->
                match i.rhs with
                | Ir.Store (_, Ir.Reg r) -> String.equal r slot
                | _ -> false)
              b.body
          in
          if stores then Some b.label else None)
        f.blocks
    in
    (* φ placement: iterated dominance frontier. *)
    let phi_of : (string * string, Ir.instr) Hashtbl.t = Hashtbl.create 16 in
    (* (block, slot) → phi instr *)
    List.iter
      (fun slot ->
        let worklist = Queue.create () in
        List.iter (fun b -> Queue.push b worklist) (def_blocks slot);
        let placed = Hashtbl.create 8 in
        let enqueued = Hashtbl.create 8 in
        while not (Queue.is_empty worklist) do
          let b = Queue.pop worklist in
          List.iter
            (fun d ->
              if not (Hashtbl.mem placed d) then begin
                Hashtbl.add placed d ();
                let blk = Ir.block_exn f d in
                let preds = Ir.predecessors f d in
                let phi =
                  {
                    Ir.id = Ir.fresh_id f;
                    result = Some (Ir.fresh_reg ~hint:(slot ^ ".phi") f);
                    rhs = Ir.Phi (List.map (fun p -> (p, Ir.Undef)) preds);
                  }
                in
                blk.phis <- blk.phis @ [ phi ];
                Hashtbl.replace phi_of (d, slot) phi;
                if not (Hashtbl.mem enqueued d) then begin
                  Hashtbl.add enqueued d ();
                  Queue.push d worklist
                end
              end)
            (Option.value ~default:[] (Hashtbl.find_opt df b))
        done)
      slot_names;
    (* Renaming walk over the dominator tree. *)
    let replacements : (Ir.reg, Ir.value) Hashtbl.t = Hashtbl.create 32 in
    (* load result reg → value *)
    let resolve v =
      let rec go v d =
        if d = 0 then v
        else
          match v with
          | Ir.Reg r -> (
              match Hashtbl.find_opt replacements r with Some v' -> go v' (d - 1) | None -> v)
          | _ -> v
      in
      go v 64
    in
    let rec walk (label : string) (env : Ir.value SMap.t) : unit =
      let blk = Ir.block_exn f label in
      let env = ref env in
      (* φ-nodes of this block define new current values. *)
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun slot ->
              match Hashtbl.find_opt phi_of (label, slot) with
              | Some phi when phi.id = i.id -> (
                  match i.result with
                  | Some r -> env := SMap.add slot (Ir.Reg r) !env
                  | None -> ())
              | _ -> ())
            slot_names)
        blk.phis;
      (* Body: consume loads/stores of promotable slots. *)
      blk.body <-
        List.filter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Load (Ir.Reg a) when List.mem a slot_names ->
                let v =
                  match SMap.find_opt a !env with Some v -> resolve v | None -> Ir.Undef
                in
                (match i.result with
                | Some r -> Hashtbl.replace replacements r v
                | None -> ());
                false
            | Ir.Store (v, Ir.Reg a) when List.mem a slot_names ->
                env := SMap.add a (resolve v) !env;
                false
            | Ir.Alloca _ when
                (match i.result with Some r -> List.mem r slot_names | None -> false) ->
                false
            | _ -> true)
          blk.body;
      (* Fill φ incomings of successors from this edge. *)
      List.iter
        (fun s ->
          let sb = Ir.block_exn f s in
          List.iter
            (fun (phi : Ir.instr) ->
              List.iter
                (fun slot ->
                  match Hashtbl.find_opt phi_of (s, slot) with
                  | Some p when p.id = phi.id ->
                      let v =
                        match SMap.find_opt slot !env with Some v -> resolve v | None -> Ir.Undef
                      in
                      phi.rhs <-
                        (match phi.rhs with
                        | Ir.Phi incoming ->
                            Ir.Phi
                              (List.map
                                 (fun (l, old) -> if String.equal l label then (l, v) else (l, old))
                                 incoming)
                        | rhs -> rhs)
                  | _ -> ())
                slot_names)
            sb.phis)
        (Ir.successors blk);
      List.iter
        (fun c -> walk c !env)
        (Option.value ~default:[] (Hashtbl.find_opt children label))
    in
    walk (Ir.entry f).label SMap.empty;
    (* Rewrite every remaining use of replaced load results. *)
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) -> i.rhs <- Ir.map_rhs_operands resolve i.rhs)
          (Ir.block_instrs b);
        b.term <- Ir.map_term_operands resolve b.term)
      f.blocks;
    (* Prune unused φ-nodes ("pruned SSA"): the frontier placement inserts
       φs whether or not a read follows; drop those nobody uses, repeating
       because φs feed each other. *)
    let changed = ref true in
    while !changed do
      changed := false;
      let used = Hashtbl.create 64 in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              List.iter (fun r -> Hashtbl.replace used r ()) (Ir.rhs_uses i.rhs))
            (Ir.block_instrs b);
          List.iter (fun r -> Hashtbl.replace used r ()) (Ir.term_uses b.term))
        f.blocks;
      List.iter
        (fun (b : Ir.block) ->
          let keep (i : Ir.instr) =
            match (i.rhs, i.result) with
            | Ir.Phi _, Some r when not (Hashtbl.mem used r) ->
                changed := true;
                false
            | _ -> true
          in
          b.phis <- List.filter keep b.phis)
        f.blocks
    done;
    true
  end
end

(* ------------------------------------------------------------------ *)
(* CP                                                                   *)
(* ------------------------------------------------------------------ *)

module Constprop = struct
module Fold = Passes.Fold

(** Constant propagation (the paper's CP): fold instructions whose operands
    are constants, replace all uses of the result with the constant, and
    delete the instruction.  Also simplifies single-value φ-nodes exposed by
    the folding.  OSR-aware: every deletion and use-rewrite is recorded in
    the CodeMapper. *)

let stat_folded = Passes.Constprop.stat_folded

let stat_phi = Passes.Constprop.stat_phi

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let tel = Code_mapper.telemetry m in
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    (* Find a foldable instruction. *)
    let try_fold (b : Ir.block) (i : Ir.instr) : bool =
      (* The traversal iterates over a snapshot of the body; skip
         instructions already removed by an earlier fold this round. *)
      if not (List.exists (fun (j : Ir.instr) -> j.id = i.id) b.body) then false
      else
      match (Fold.fold_rhs i.rhs, i.result) with
      | Some n, Some r ->
          Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:(Ir.Const n);
          Code_mapper.delete_instr m i;
          Telemetry.bump tel stat_folded;
          Telemetry.remark tel ~pass:"CP" ~func:f.fname ~block:b.label ~instr:i.id
            (fun () -> Printf.sprintf "folded %%%s to %d" r n);
          b.body <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.body;
          true
      | _ -> false
    in
    (* Single-value φ: all incomings identical (and not the φ itself). *)
    let try_phi (b : Ir.block) (i : Ir.instr) : bool =
      if not (List.exists (fun (j : Ir.instr) -> j.id = i.id) b.phis) then false
      else
      match (i.rhs, i.result) with
      | Ir.Phi ((_, v0) :: rest), Some r
        when List.for_all (fun (_, v) -> Ir.equal_value v v0) rest
             && not (Ir.equal_value v0 (Ir.Reg r)) ->
          Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v0;
          Code_mapper.delete_instr m i;
          Telemetry.bump tel stat_phi;
          Telemetry.remark tel ~pass:"CP" ~func:f.fname ~block:b.label ~instr:i.id
            (fun () ->
              Printf.sprintf "phi %%%s collapsed to %s" r (Ir.value_to_string v0));
          b.phis <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.phis;
          true
      | _ -> false
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            if try_fold b i then begin
              changed := true;
              continue_ := true
            end)
          b.body;
        List.iter
          (fun i ->
            if try_phi b i then begin
              changed := true;
              continue_ := true
            end)
          b.phis)
      f.blocks
  done;
  !changed
end

(* ------------------------------------------------------------------ *)
(* CSE                                                                  *)
(* ------------------------------------------------------------------ *)

module Cse = struct

(** Common subexpression elimination in the style of LLVM's EarlyCSE:
    a dominator-tree walk with a scoped hash table of available pure
    expressions (always sound in SSA — a value, once computed, never
    changes), plus {e block-local} redundant-load elimination and
    store-to-load forwarding tracked per memory generation — any store or
    impure call starts a new generation, exactly the "available load from
    right generation" check in the paper's Figure 6 excerpt.

    Load availability is deliberately not propagated across blocks: with an
    all-may-alias memory model, a fact recorded in a dominator is invalidated
    by stores on {e any} CFG path into the current block (sibling branch
    arms, loop back edges), which the dominator walk does not see.

    OSR-aware: replaced uses and deletions are recorded (this mirrors the
    instrumented CSE of Figure 6). *)

(* Available expressions, keyed by the rhs itself: two pure rhs are the
   same expression when they are equal after {!rhs_key} puts the operands
   of a commutative operation in a canonical order. *)
module Exprs = Hashtbl.Make (struct
  type t = Ir.rhs

  let equal = Ir.equal_rhs
  let hash (r : Ir.rhs) = Hashtbl.hash r
end)

let rhs_key (rhs : Ir.rhs) : Ir.rhs option =
  match rhs with
  | Ir.Binop (((Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor) as op), a, b) ->
      (* Normalize commutative operations. *)
      Some (if compare a b <= 0 then rhs else Ir.Binop (op, b, a))
  | Ir.Binop _ | Ir.Icmp _ | Ir.Select _ -> Some rhs
  | Ir.Call (name, _) when Ir.is_pure_call name -> Some rhs
  | Ir.Call _ | Ir.Alloca _ | Ir.Load _ | Ir.Store _ | Ir.Phi _ -> None

let stat_expr = Passes.Cse.stat_expr
let stat_load = Passes.Cse.stat_load

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let tel = Code_mapper.telemetry m in
  let changed = ref false in
  let dom = Miniir.Dom.compute (Miniir.Func_index.make f) in
  let children = Passes.Mem2reg.dom_children dom in
  let avail : Ir.value Exprs.t = Exprs.create 64 in
  let avail_loads : (Ir.value, Ir.value * int) Hashtbl.t = Hashtbl.create 16 in
  (* address → (value, generation) *)
  let generation = ref 0 in
  let rec walk (node : int) : unit =
    let blk = dom.index.blocks.(node) in
    let label = blk.label in
    (* Load facts are block-local; expression facts are scoped and undone
       on exit from this dominator subtree. *)
    Hashtbl.reset avail_loads;
    incr generation;
    let added_exprs = ref [] in
    blk.body <-
      List.filter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Store (v, addr) ->
              incr generation;
              Hashtbl.replace avail_loads addr (v, !generation);
              true
          | Ir.Call (name, _) when not (Ir.is_pure_call name) ->
              incr generation;
              true
          | Ir.Load addr -> (
              match (Hashtbl.find_opt avail_loads addr, i.result) with
              | Some (v, gen), Some r when gen = !generation ->
                  (* Available load (or store-forwarded value) from the
                     current generation: reuse it. *)
                  Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v;
                  Code_mapper.delete_instr m i;
                  Telemetry.bump tel stat_load;
                  Telemetry.remark tel ~pass:"CSE" ~func:f.fname ~block:label ~instr:i.id
                    (fun () ->
                      Printf.sprintf "forwarded load %%%s from %s" r (Ir.value_to_string v));
                  changed := true;
                  false
              | _, Some r ->
                  Hashtbl.replace avail_loads addr (Ir.Reg r, !generation);
                  true
              | _, None -> true)
          | rhs -> (
              match (rhs_key rhs, i.result) with
              | Some key, Some r -> (
                  match Exprs.find_opt avail key with
                  | Some v ->
                      Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v;
                      Code_mapper.delete_instr m i;
                      Telemetry.bump tel stat_expr;
                      Telemetry.remark tel ~pass:"CSE" ~func:f.fname ~block:label ~instr:i.id
                        (fun () ->
                          Printf.sprintf "%%%s subsumed by %s" r (Ir.value_to_string v));
                      changed := true;
                      false
                  | None ->
                      added_exprs := key :: !added_exprs;
                      Exprs.replace avail key (Ir.Reg r);
                      true)
              | _, _ -> true))
        blk.body;
    List.iter walk children.(node);
    (* Undo this scope's expression facts. *)
    List.iter (fun k -> Exprs.remove avail k) !added_exprs
  in
  walk 0;
  !changed
end

(* ------------------------------------------------------------------ *)
(* Pass_manager.apply / to_fbase                                        *)
(* ------------------------------------------------------------------ *)

let standard_pipeline : Pass_manager.pass list =
  List.map
    (fun (p : Pass_manager.pass) ->
      match p.pname with
      | "CP" -> { p with run = Constprop.run }
      | "CSE" -> { p with run = Cse.run }
      | "SCCP" -> { p with run = Sccp.run }
      | "LCSSA" -> { p with run = Lcssa.run }
      | "Sink" -> { p with run = Sink.run }
      | _ -> p)
    Pass_manager.standard_pipeline

let stat_rolled_back = Pass_manager.stat_rolled_back
let restore_func = Pass_manager.restore_func

type apply_result = Pass_manager.apply_result = {
  fbase : Ir.func;
  fopt : Ir.func;
  mapper : Code_mapper.t;
  per_pass : (string * Code_mapper.counts) list;
}

type pass = Pass_manager.pass = {
  pname : string;
  run : Code_mapper.t -> Ir.func -> bool;
}

let apply ?(pipeline = standard_pipeline) ?(telemetry = Telemetry.null) (f : Ir.func) :
    apply_result =
  let fopt = Ir.clone_func f in
  let mapper = Code_mapper.create ~telemetry () in
  let per_pass = ref [] in
  List.iter
    (fun (p : pass) ->
      let before = Code_mapper.counts mapper in
      let pre_ir = Ir.clone_func fopt and pre_mapper = Code_mapper.snapshot mapper in
      let _changed : bool =
        Telemetry.with_span telemetry ~cat:"pass" p.pname (fun () -> p.run mapper fopt)
      in
      (match
         Telemetry.with_span telemetry ~cat:"verify" "verify" (fun () -> Verifier.verify fopt)
       with
      | Ok () -> ()
      | Error es ->
          let details = Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es in
          restore_func fopt ~from_:pre_ir;
          Code_mapper.restore mapper pre_mapper;
          Telemetry.bump telemetry stat_rolled_back;
          Telemetry.remark telemetry ~pass:p.pname ~func:fopt.Ir.fname (fun () ->
              "pass rolled back: post-pass verification failed: " ^ details));
      (* Computed after a possible rollback, so a rolled-back pass reports
         zero actions. *)
      let after = Code_mapper.counts mapper in
      let delta : Code_mapper.counts =
        {
          add = after.add - before.add;
          delete = after.delete - before.delete;
          hoist = after.hoist - before.hoist;
          sink = after.sink - before.sink;
          replace = after.replace - before.replace;
        }
      in
      per_pass := (p.pname, delta) :: !per_pass)
    pipeline;
  { fbase = f; fopt; mapper; per_pass = List.rev !per_pass }

(** Run mem2reg in place on a freshly built alloca-form function to obtain
    the paper's [fbase] (clang -O0 + mem2reg). *)
let to_fbase (f : Ir.func) : Ir.func =
  let f' = Ir.clone_func f in
  let _ : bool = Mem2reg.run f' in
  Verifier.verify_exn f';
  f'

(* ------------------------------------------------------------------ *)
(* Dsl.to_fbase                                                         *)
(* ------------------------------------------------------------------ *)

let pm_to_fbase = to_fbase

module Dsl = struct
  include Corpus.Dsl

let to_fbase (k : kernel) : Ir.func * debug_info =
  let raw, dbg = lower k in
  let fbase = pm_to_fbase raw in
  let surviving = Hashtbl.create 256 in
  List.iter (fun (i : Ir.instr) -> Hashtbl.replace surviving i.id ()) (Ir.all_instrs fbase);
  List.iter
    (fun (blk : Ir.block) -> Hashtbl.replace surviving blk.term_id ())
    fbase.Ir.blocks;
  (* Remap via the raw function's block layout. *)
  let remap id =
    if Hashtbl.mem surviving id then Some id
    else
      (* find the instruction's successor within its raw block *)
      let rec find_in_blocks = function
        | [] -> None
        | (blk : Ir.block) :: rest -> (
            let ids = List.map (fun (i : Ir.instr) -> i.id) (Ir.block_instrs blk) in
            match List.find_index (fun x -> x = id) ids with
            | None -> find_in_blocks rest
            | Some idx ->
                let after = List.filteri (fun j _ -> j > idx) ids @ [ blk.term_id ] in
                List.find_opt (Hashtbl.mem surviving) after)
      in
      find_in_blocks raw.Ir.blocks
  in
  let source_points =
    List.sort_uniq compare (List.filter_map remap dbg.source_points)
  in
  (fbase, { dbg with source_points })
end
