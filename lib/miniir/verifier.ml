(** SSA well-formedness checks for MiniIR functions, run by tests and by
    the pass manager after every pass:

    - block labels unique, terminator targets exist
    - instruction ids unique
    - every register defined at most once (SSA single assignment)
    - φ-nodes only at block tops, with exactly one incoming per predecessor
    - non-φ uses dominated by their definitions
    - φ incomings dominated at the end of the corresponding predecessor
    - entry block has no φ-nodes and no predecessors

    Validity is decided by one walk over tables built for the call: blocks
    numbered by position, successor and predecessor lists of block numbers,
    one register → (block, position) table, a bitmap of seen ids, and the
    dominator tree of {!Dom.numbered}.  Only a function the walk rejects
    pays for the error list: {!explain} runs every check again over a
    {!Func_index}, its {!Dom.t} and {!Ir.def_table}, and reports each
    violation.  The verifier
    never takes analyses from a pass pipeline's cache: a pass that wrongly
    declares itself CFG-preserving leaves stale dominators there, and
    catching that pass is exactly the verifier's job. *)

type error = { where : string; what : string }

let pp_error ppf (e : error) = Fmt.pf ppf "%s: %s" e.where e.what

exception Reject

(* Register table entry of a parameter; an instruction's entry packs its
   block number and position as [block lsl 32 lor position]. *)
let param = -1

(** Does [f] pass every check?  Positions are numbered as {!Func_index}
    numbers them: φ-nodes at 0, the body from 1, the
    terminator after the body.  A function with an id outside
    [\[0, next_id)] is left to {!explain}, which does not check that
    bound. *)
let accepts (f : Ir.func) : bool =
  let reject () = raise_notrace Reject in
  try
    let blocks = Array.of_list f.blocks in
    let n = Array.length blocks in
    if n = 0 then reject ();
    let num = Hashtbl.create n in
    Array.iteri
      (fun k (b : Ir.block) ->
        if Hashtbl.mem num b.label then reject ();
        Hashtbl.add num b.label k)
      blocks;
    let block_of l = match Hashtbl.find num l with k -> k | exception Not_found -> reject () in
    let succs = Array.map (fun b -> List.map block_of (Ir.successors b)) blocks in
    let preds = Array.make n [] in
    for k = n - 1 downto 0 do
      List.iter (fun s -> preds.(s) <- k :: preds.(s)) succs.(k)
    done;
    if blocks.(0).phis <> [] || preds.(0) <> [] then reject ();
    let next_id = f.next_id in
    let seen = Bytes.make ((max next_id 0 + 7) / 8) '\000' in
    let see id =
      if id < 0 || id >= next_id then reject ();
      let byte = Char.code (Bytes.unsafe_get seen (id lsr 3)) and bit = 1 lsl (id land 7) in
      if byte land bit <> 0 then reject ();
      Bytes.unsafe_set seen (id lsr 3) (Char.unsafe_chr (byte lor bit))
    in
    let defs = Hashtbl.create (max next_id 0 / 2) in
    List.iter (fun p -> Hashtbl.replace defs p param) f.params;
    let define k pos (i : Ir.instr) =
      see i.id;
      match i.result with
      | Some r ->
          if Hashtbl.mem defs r then reject ();
          Hashtbl.add defs r ((k lsl 32) lor pos)
      | None -> ()
    in
    Array.iteri
      (fun k (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with Ir.Phi _ -> define k 0 i | _ -> reject ())
          b.phis;
        let (_ : int) =
          List.fold_left
            (fun pos (i : Ir.instr) ->
              match i.rhs with
              | Ir.Phi _ -> reject ()
              | _ ->
                  define k pos i;
                  pos + 1)
            1 b.body
        in
        see b.term_id)
      blocks;
    let g = Dom.numbered ~succs ~preds in
    let rpo = g.Dom.rpo and tin = g.Dom.rpo_tin and tout = g.Dom.rpo_tout in
    (* Block [a] dominates block [b], which is reachable. *)
    let dominates a b =
      let ra = rpo.(a) and rb = rpo.(b) in
      ra >= 0 && tin.(ra) <= tin.(rb) && tout.(rb) <= tout.(ra)
    in
    let stamp = Array.make n 0 and clock = ref 0 in
    Array.iteri
      (fun k (b : Ir.block) ->
        let reachable = rpo.(k) >= 0 in
        (* A use at [pos] of block [k]: uses in unreachable blocks need
           only a definition. *)
        let use pos = function
          | Ir.Reg r -> (
              match Hashtbl.find defs r with
              | exception Not_found -> reject ()
              | d ->
                  if d <> param && reachable then
                    let db = d lsr 32 in
                    if db = k then (if d land 0xFFFFFFFF >= pos then reject ())
                    else if not (dominates db k) then reject ())
          | Ir.Const _ | Ir.Undef -> ()
        in
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                (* One incoming per predecessor: stamp the predecessors,
                   then clear each stamp an incoming consumes. *)
                incr clock;
                let s = !clock in
                List.iter (fun p -> stamp.(p) <- s) preds.(k);
                if List.compare_lengths incoming preds.(k) <> 0 then reject ();
                List.iter
                  (fun (l, v) ->
                    let p = block_of l in
                    if stamp.(p) <> s then reject ();
                    stamp.(p) <- 0;
                    (* Available at the end of a reachable [p]. *)
                    match v with
                    | Ir.Reg r -> (
                        match Hashtbl.find defs r with
                        | exception Not_found -> reject ()
                        | d ->
                            if d <> param && rpo.(p) >= 0 && not (dominates (d lsr 32) p)
                            then reject ())
                    | Ir.Const _ | Ir.Undef -> ())
                  incoming
            | _ -> reject ())
          b.phis;
        let term_pos =
          List.fold_left
            (fun pos (i : Ir.instr) ->
              (match i.rhs with
              | Ir.Binop (_, x, y) | Ir.Icmp (_, x, y) | Ir.Store (x, y) ->
                  use pos x;
                  use pos y
              | Ir.Select (c, x, y) ->
                  use pos c;
                  use pos x;
                  use pos y
              | Ir.Load x -> use pos x
              | Ir.Call (_, args) -> List.iter (use pos) args
              | Ir.Alloca _ | Ir.Phi _ -> ());
              pos + 1)
            1 b.body
        in
        match b.term with
        | Ir.Cbr (c, _, _) -> use term_pos c
        | Ir.Ret v -> use term_pos v
        | Ir.Br _ | Ir.Unreachable -> ())
      blocks;
    true
  with Reject -> false

(** Every violation of [f], in a fixed order: the error list of
    {!verify}. *)
let explain (f : Ir.func) : (unit, error list) result =
  let index = Func_index.make f in
  let errs = ref [] in
  let err where fmt = Printf.ksprintf (fun what -> errs := { where; what } :: !errs) fmt in
  (* Labels unique *)
  let labels = Ir.Names.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if Ir.Names.mem labels b.label then err b.label "duplicate block label"
      else Ir.Names.add labels b.label ())
    f.blocks;
  (* Terminator targets exist *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s -> if not (Ir.Names.mem labels s) then err b.label "branch to unknown block %s" s)
        (Ir.successors b))
    f.blocks;
  (* Instruction ids unique; registers single-assignment *)
  let ids = Array.make (Array.length index.point_block) false in
  let defs = Ir.Names.create 64 in
  List.iter (fun p -> Ir.Names.replace defs p `Param) f.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if ids.(i.id) then err b.label "duplicate instruction id %d" i.id else ids.(i.id) <- true;
          match i.result with
          | Some r ->
              if Ir.Names.mem defs r then err b.label "register %%%s defined twice" r
              else Ir.Names.replace defs r `Instr
          | None -> ())
        (Ir.block_instrs b);
      if ids.(b.term_id) then err b.label "duplicate terminator id %d" b.term_id
      else ids.(b.term_id) <- true)
    f.blocks;
  let is_param r = Ir.Names.find_opt defs r = Some `Param in
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
    let dom = Dom.compute index in
    let def_tbl = Ir.def_table f in
    let check_use (b : Ir.block) (use_id : int) (r : Ir.reg) =
      if not (is_param r) then
        match Ir.Names.find_opt def_tbl r with
        | None -> err b.label "use of undefined register %%%s at #%d" r use_id
        | Some d ->
            let def_id = d.di.id in
            if Dom.reachable dom b.label && not (Dom.instr_dominates dom ~def_id ~use_id) then
              err b.label "use of %%%s at #%d not dominated by its definition #%d" r use_id def_id
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
                    | Ir.Reg r when not (is_param r) -> (
                        match Ir.Names.find_opt def_tbl r with
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

let verify (f : Ir.func) : (unit, error list) result = if accepts f then Ok () else explain f

(** Raise [Failure] with a readable message if verification fails. *)
let verify_exn (f : Ir.func) : unit =
  match verify f with
  | Ok () -> ()
  | Error es ->
      failwith
        (Fmt.str "IR verification failed for @%s:@.%a@.%s" f.fname
           (Fmt.list ~sep:Fmt.cut pp_error) es (Ir.func_to_string f))
