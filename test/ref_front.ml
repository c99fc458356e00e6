(** The front half of the JIT path as it was before its one-scan
    rewrites: LCSSA, mem2reg, the SSA verifier, [Dom.compute], the pass
    manager's [apply] that calls the verifier, and the source-point remap of
    [Dsl.to_fbase].  Each function below is a verbatim copy of the code it
    replaced; the only edits are references to other replaced code, which
    point at the copies here instead ([exit_targets], [dom_compute],
    [Verifier], [pm_to_fbase]), names qualified to compile outside
    their module, and the pass calling convention: [Lcssa.run] takes the
    mapper and the analysis manager as required arguments (the body still
    sees the optional mapper it was written for), and [Mem2reg.run] takes
    no analysis manager (no caller passed one).  [apply] is copied too because it calls the verifier.
    [Suite_front] runs both versions side by side and asserts every
    observable is byte-identical.

    Since the dense [Func_index]: the copies read the frozen index,
    dominator queries and definition table of {!Ref_miniir}
    ([Func_index], [Dom] includes [Ref_miniir.Dom], [Lcssa] calls
    [Ref_miniir.def_table]), not the library's; [Lcssa]'s dominance
    queries on the loops it gets from the library's analysis manager call
    [Miniir.Dom.dominates_block], the library tree those loops carry. *)

module Ir = Miniir.Ir
module Func_index = Ref_miniir.Func_index
module Loops = Miniir.Loops
module Code_mapper = Passes.Code_mapper
module Analysis_manager = Passes.Analysis_manager
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

let run (mapper : Code_mapper.t) (am : Analysis_manager.t) (f : Ir.func) : bool =
  let mapper = Some mapper in
  let changed = ref false in
  let loop_info = Analysis_manager.loops am f in
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
(* Pass_manager.apply / to_fbase                                        *)
(* ------------------------------------------------------------------ *)

let standard_pipeline : Pass_manager.pass list =
  List.map
    (fun (p : Pass_manager.pass) ->
      if p.pname = "LCSSA" then { p with run = Lcssa.run } else p)
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
  run : Code_mapper.t -> Analysis_manager.t -> Ir.func -> bool;
  preserves : Analysis_manager.analysis list;
}

let apply ?(pipeline = standard_pipeline) ?(telemetry = Telemetry.null) (f : Ir.func) :
    apply_result =
  let fopt = Ir.clone_func f in
  let mapper = Code_mapper.create ~telemetry () in
  let am = Analysis_manager.create ~telemetry () in
  let per_pass = ref [] in
  List.iter
    (fun (p : pass) ->
      let before = Code_mapper.counts mapper in
      let pre_ir = Ir.clone_func fopt and pre_mapper = Code_mapper.snapshot mapper in
      let changed =
        Telemetry.with_span telemetry ~cat:"pass" p.pname (fun () -> p.run mapper am fopt)
      in
      if changed then Analysis_manager.invalidate ~preserved:p.preserves am;
      (match
         Telemetry.with_span telemetry ~cat:"verify" "verify" (fun () -> Verifier.verify fopt)
       with
      | Ok () -> ()
      | Error es ->
          let details = Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es in
          restore_func fopt ~from_:pre_ir;
          Code_mapper.restore mapper pre_mapper;
          (* The restored IR matches no cached analysis of the broken one. *)
          Analysis_manager.invalidate ~preserved:[] am;
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
