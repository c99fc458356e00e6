(** SSA well-formedness checks for MiniIR functions, run by tests and by
    the pass manager after every pass:

    - block labels unique, terminator targets exist
    - instruction ids unique
    - every register defined at most once (SSA single assignment)
    - φ-nodes only at block tops, with exactly one incoming per predecessor
    - non-φ uses dominated by their definitions
    - φ incomings dominated at the end of the corresponding predecessor
    - entry block has no φ-nodes and no predecessors

    One {!Func_index} per call carries every table the checks read, and
    the dominator tree is computed from it.  The verifier never takes
    analyses from a pass pipeline's cache: a pass that wrongly declares
    itself CFG-preserving leaves stale dominators there, and catching that
    pass is exactly the verifier's job. *)

type error = { where : string; what : string }

let pp_error ppf (e : error) = Fmt.pf ppf "%s: %s" e.where e.what

let verify (f : Ir.func) : (unit, error list) result =
  let index = Func_index.make f in
  let errs = ref [] in
  let err where fmt = Printf.ksprintf (fun what -> errs := { where; what } :: !errs) fmt in
  (* Labels unique.  The index keeps one block per label, so the detailed
     scan runs only when the counts say there is a duplicate. *)
  let labels = index.Func_index.blocks in
  let n_blocks = List.length f.blocks in
  if Hashtbl.length labels <> n_blocks then begin
    let seen = Hashtbl.create n_blocks in
    List.iter
      (fun (b : Ir.block) ->
        if Hashtbl.mem seen b.label then err b.label "duplicate block label"
        else Hashtbl.add seen b.label ())
      f.blocks
  end;
  (* Terminator targets exist *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s -> if not (Hashtbl.mem labels s) then err b.label "branch to unknown block %s" s)
        (Ir.successors b))
    f.blocks;
  (* Instruction ids unique; registers single-assignment.  Same counting:
     the index holds one entry per distinct id and per distinct register. *)
  let n_ids = ref 0 and n_results = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let count (i : Ir.instr) =
        incr n_ids;
        if i.result <> None then incr n_results
      in
      List.iter count b.phis;
      List.iter count b.body;
      incr n_ids)
    f.blocks;
  let defs_tbl = index.Func_index.defs in
  if
    Hashtbl.length index.Func_index.owner <> !n_ids
    || Hashtbl.length defs_tbl <> !n_results
    || List.exists (Hashtbl.mem defs_tbl) f.params
  then begin
    let ids = Hashtbl.create !n_ids in
    let defs = Hashtbl.create !n_results in
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
      f.blocks
  end;
  (* φ shape: one incoming per predecessor, and only among phis *)
  List.iter
    (fun (b : Ir.block) ->
      if b.phis <> [] then begin
        let preds = List.sort_uniq compare (Func_index.predecessors index b.label) in
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                let labels = List.map fst incoming in
                let inc = List.sort_uniq compare labels in
                if inc <> preds then
                  err b.label "phi #%d incoming {%s} but predecessors {%s}" i.id
                    (String.concat "," inc) (String.concat "," preds);
                if List.compare_lengths inc labels <> 0 then
                  err b.label "phi #%d has more than one incoming from {%s}" i.id
                    (String.concat ","
                       (List.filter
                          (fun l -> List.length (List.filter (String.equal l) labels) > 1)
                          inc))
            | _ -> err b.label "non-phi instruction #%d in phi section" i.id)
          b.phis
      end;
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
    let check_use (b : Ir.block) (use_id : int) (r : Ir.reg) =
      if not (Func_index.is_param index r) then
        match Hashtbl.find_opt defs_tbl r with
        | None -> err b.label "use of undefined register %%%s at #%d" r use_id
        | Some d ->
            let def_id = d.di.id in
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
                    | Ir.Reg r when not (Func_index.is_param index r) -> (
                        match Hashtbl.find_opt defs_tbl r with
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
           (Fmt.list ~sep:Fmt.cut pp_error) es (Ir.func_to_string f))
