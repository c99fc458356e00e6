(** SSA well-formedness checks for MiniIR functions, run by tests and by
    the pass manager after every pass:

    - block labels unique, terminator targets exist
    - instruction and terminator ids unique and in [\[0, next_id)]
    - every register defined at most once (SSA single assignment)
    - φ-nodes only at block tops, with exactly one incoming per predecessor
    - non-φ uses dominated by their definitions
    - φ incomings dominated at the end of the corresponding predecessor
    - entry block has no φ-nodes and no predecessors

    {!verify} is one walk over tables built for the call: blocks numbered
    by position (a label names its last block), successor and predecessor
    lists of block numbers, one register → (block, position) table, a
    bitmap of seen ids, and the dominator tree of {!Dom.numbered}.  Each
    violation goes to the bucket of its check class, and the error list is
    the buckets joined in a fixed order; the use and dominance checks run
    only when the structural buckets are empty.  No table is indexed by an
    id outside [\[0, next_id)] or sized by a huge [next_id], so no id makes
    the walk raise, and a valid function formats and conses no error.  The verifier reads no pass's
    analyses: a pass that rewires edges but keeps using an index of the old
    graph can emit a broken function, and catching that pass is exactly the
    verifier's job. *)

type error = { where : string; what : string }

let pp_error ppf (e : error) = Fmt.pf ppf "%s: %s" e.where e.what

(* Register table entry of a parameter; an instruction's entry packs its
   block number and position as [block lsl 32 lor position]. *)
let param = -1

let add bucket where fmt = Printf.ksprintf (fun what -> bucket := { where; what } :: !bucket) fmt

(** Every violation of [f], in a fixed order: duplicate labels, unknown
    branch targets, ids and registers, φ shape, the entry block; then, only
    if none of those was found, undefined and undominated uses.  In a
    block, φ-nodes are at position 0, the body from 1, and the terminator
    after the body. *)
let verify (f : Ir.func) : (unit, error list) result =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let labels_e = ref [] and targets_e = ref [] and ids_e = ref [] and phis_e = ref []
  and entry_e = ref [] in
  let num = Ir.Names.create n in
  Array.iteri
    (fun k (b : Ir.block) ->
      if Ir.Names.mem num b.label then begin
        add labels_e b.label "duplicate block label";
        Ir.Names.replace num b.label k
      end
      else Ir.Names.add num b.label k)
    blocks;
  let unique = Ir.Names.length num = n in
  (* The block that block [k]'s label names: the last with that label. *)
  let canon k = if unique then k else Ir.Names.find num blocks.(k).Ir.label in
  (* An unknown target is -1 in [succs]; only a valid function's graph
     reaches {!Dom.numbered}. *)
  let succs =
    Array.map
      (fun (b : Ir.block) ->
        List.map
          (fun l ->
            match Ir.Names.find num l with
            | k -> k
            | exception Not_found ->
                add targets_e b.label "branch to unknown block %s" l;
                -1)
          (Ir.successors b))
      blocks
  in
  let preds = Array.make n [] in
  for k = n - 1 downto 0 do
    List.iter (fun s -> if s >= 0 then preds.(s) <- k :: preds.(s)) succs.(k)
  done;
  let next_id = f.next_id in
  (* Seen ids: a bitmap below [bits], a table above it, so that a huge
     [next_id] sizes no allocation. *)
  let bits = min (max next_id 0) (1 lsl 20) in
  let seen = Bytes.make ((bits + 7) / 8) '\000' and seen_above = Hashtbl.create 1 in
  let see what where id =
    if id < 0 || id >= next_id then add ids_e where "%s id %d outside [0, %d)" what id next_id
    else if id < bits then begin
      let byte = Char.code (Bytes.unsafe_get seen (id lsr 3)) and bit = 1 lsl (id land 7) in
      if byte land bit <> 0 then add ids_e where "duplicate %s id %d" what id
      else Bytes.unsafe_set seen (id lsr 3) (Char.unsafe_chr (byte lor bit))
    end
    else if Hashtbl.mem seen_above id then add ids_e where "duplicate %s id %d" what id
    else Hashtbl.add seen_above id ()
  in
  let defs = Ir.Names.create (max 16 (bits / 2)) in
  List.iter (fun p -> Ir.Names.replace defs p param) f.params;
  let define (b : Ir.block) k pos (i : Ir.instr) =
    see "instruction" b.label i.id;
    match i.result with
    | Some r ->
        (* One lookup: a name already there leaves the count unchanged.
           Which definition it then maps to does not matter, since the use
           checks only run on a function without this error. *)
        let n = Ir.Names.length defs in
        Ir.Names.replace defs r ((k lsl 32) lor pos);
        if Ir.Names.length defs = n then add ids_e b.label "register %%%s defined twice" r
    | None -> ()
  in
  (* One incoming per predecessor label: stamp the predecessors' labels,
     then clear each stamp an incoming consumes.  Only a φ that fails
     builds the label lists of the messages. *)
  let stamp = Array.make n 0 and clock = ref 0 in
  let rec stamp_preds s m = function
    | [] -> m
    | p :: ps ->
        let c = canon p in
        if stamp.(c) = s then stamp_preds s m ps
        else begin
          stamp.(c) <- s;
          stamp_preds s (m + 1) ps
        end
  in
  let rec consume s = function
    | [] -> true
    | (l, _) :: rest -> (
        match Ir.Names.find num l with
        | c ->
            stamp.(c) = s
            &&
            (stamp.(c) <- 0;
             consume s rest)
        | exception Not_found -> false)
  in
  let phi_shape k (b : Ir.block) (i : Ir.instr) incoming =
    let ps = preds.(canon k) in
    incr clock;
    let s = !clock in
    if not (List.compare_length_with incoming (stamp_preds s 0 ps) = 0 && consume s incoming)
    then begin
      let preds = List.sort_uniq String.compare (List.map (fun p -> blocks.(p).Ir.label) ps) in
      let labels = List.map fst incoming in
      let inc = List.sort_uniq String.compare labels in
      if not (List.equal String.equal inc preds) then
        add phis_e b.label "phi #%d incoming {%s} but predecessors {%s}" i.id
          (String.concat "," inc) (String.concat "," preds);
      if List.compare_lengths inc labels <> 0 then
        add phis_e b.label "phi #%d has more than one incoming from {%s}" i.id
          (String.concat ","
             (List.filter (fun l -> List.length (List.filter (String.equal l) labels) > 1) inc))
    end
  in
  let rec phis (b : Ir.block) k = function
    | [] -> ()
    | (i : Ir.instr) :: rest ->
        define b k 0 i;
        (match i.rhs with
        | Ir.Phi incoming -> phi_shape k b i incoming
        | _ -> add phis_e b.label "non-phi instruction #%d in phi section" i.id);
        phis b k rest
  in
  let rec body (b : Ir.block) k pos = function
    | [] -> ()
    | (i : Ir.instr) :: rest ->
        define b k pos i;
        (match i.rhs with
        | Ir.Phi _ -> add phis_e b.label "phi #%d in body section" i.id
        | _ -> ());
        body b k (pos + 1) rest
  in
  Array.iteri
    (fun k (b : Ir.block) ->
      phis b k b.phis;
      body b k 1 b.body;
      see "terminator" b.label b.term_id)
    blocks;
  if n = 0 then add entry_e f.fname "function has no blocks"
  else begin
    let e = blocks.(0) in
    if e.phis <> [] then add entry_e e.label "entry block has phi-nodes";
    if preds.(canon 0) <> [] then add entry_e e.label "entry block has predecessors"
  end;
  match (!labels_e, !targets_e, !ids_e, !phis_e, !entry_e) with
  | [], [], [], [], [] -> (
      (* Every label names one block, every target and φ label is known,
         every id and register is unique. *)
      let uses_e = ref [] in
      let g = Dom.numbered ~succs ~preds in
      let rpo = g.Dom.rpo and tin = g.Dom.rpo_tin and tout = g.Dom.rpo_tout in
      (* Block [a] dominates block [b], which is reachable. *)
      let dominates a b =
        let ra = rpo.(a) and rb = rpo.(b) in
        ra >= 0 && tin.(ra) <= tin.(rb) && tout.(rb) <= tout.(ra)
      in
      (* The id of the instruction that defines [r] in block [d lsr 32]. *)
      let def_id r d =
        (List.find (fun (i : Ir.instr) -> i.result = Some r) (Ir.block_instrs blocks.(d lsr 32))).id
      in
      (* A use of [v] by [id] at [pos] of block [k]: uses in unreachable
         blocks need only a definition. *)
      let use (b : Ir.block) k id pos = function
        | Ir.Reg r -> (
            match Ir.Names.find defs r with
            | exception Not_found ->
                add uses_e b.label "use of undefined register %%%s at #%d" r id
            | d ->
                if
                  d <> param
                  && rpo.(k) >= 0
                  &&
                  let db = d lsr 32 in
                  if db = k then d land 0xFFFFFFFF >= pos else not (dominates db k)
                then
                  add uses_e b.label "use of %%%s at #%d not dominated by its definition #%d" r id
                    (def_id r d))
        | Ir.Const _ | Ir.Undef -> ()
      in
      (* A φ incoming is available at the end of a reachable predecessor. *)
      let rec incomings (b : Ir.block) (i : Ir.instr) = function
        | [] -> ()
        | (l, v) :: rest ->
            (match v with
            | Ir.Reg r -> (
                match Ir.Names.find defs r with
                | exception Not_found -> add uses_e b.label "phi #%d reads undefined %%%s" i.id r
                | d ->
                    let p = Ir.Names.find num l in
                    if d <> param && rpo.(p) >= 0 && not (dominates (d lsr 32) p) then
                      add uses_e b.label "phi #%d incoming %%%s from %s not available there" i.id
                        r l)
            | Ir.Const _ | Ir.Undef -> ());
            incomings b i rest
      in
      let rec phi_uses (b : Ir.block) = function
        | [] -> ()
        | (i : Ir.instr) :: rest ->
            (match i.rhs with Ir.Phi incoming -> incomings b i incoming | _ -> ());
            phi_uses b rest
      in
      let rec body_uses (b : Ir.block) k pos = function
        | [] -> pos
        | (i : Ir.instr) :: rest ->
            let id = i.id in
            (match i.rhs with
            | Ir.Binop (_, x, y) | Ir.Icmp (_, x, y) | Ir.Store (x, y) ->
                use b k id pos x;
                use b k id pos y
            | Ir.Select (c, x, y) ->
                use b k id pos c;
                use b k id pos x;
                use b k id pos y
            | Ir.Load x -> use b k id pos x
            | Ir.Call (_, args) -> List.iter (use b k id pos) args
            | Ir.Alloca _ | Ir.Phi _ -> ());
            body_uses b k (pos + 1) rest
      in
      Array.iteri
        (fun k (b : Ir.block) ->
          phi_uses b b.phis;
          let term_pos = body_uses b k 1 b.body in
          match b.term with
          | Ir.Cbr (c, _, _) -> use b k b.term_id term_pos c
          | Ir.Ret v -> use b k b.term_id term_pos v
          | Ir.Br _ | Ir.Unreachable -> ())
        blocks;
      match !uses_e with [] -> Ok () | es -> Error (List.rev es))
  | l, t, i, p, e -> Error (List.concat_map List.rev [ l; t; i; p; e ])

(** Raise [Failure] with a readable message if verification fails. *)
let verify_exn (f : Ir.func) : unit =
  match verify f with
  | Ok () -> ()
  | Error es ->
      failwith
        (Fmt.str "IR verification failed for @%s:@.%a@.%s" f.fname
           (Fmt.list ~sep:Fmt.cut pp_error) es (Ir.func_to_string f))
