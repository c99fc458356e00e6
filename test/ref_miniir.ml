(** Test-only oracles for the MiniIR analyses, moved out of the library:
    the original [Set.Make(String)] liveness that the bitset
    [Miniir.Liveness] replaced, the cross-check of a [Func_index] against
    the linear [Ir] accessors it replaces, and the SSA verifier that the
    one-walk [Miniir.Verifier] replaced.  [Suite_miniir] runs the first two
    against the library on generated functions; [Suite_front] runs the
    verifier against the library on mutated pipeline outputs.  The index's
    block ownership is the block of its [positions] table, so
    [Func_index.check] compares owners through [positions].  [Verifier.verify]
    is a verbatim copy of the code it replaced; it reads the library's
    [Func_index] and [Dom.compute] and shares its [error] type. *)

module Ir = Miniir.Ir
module Dom = Miniir.Dom

(* ------------------------------------------------------------------ *)
(* Liveness over string sets                                            *)
(* ------------------------------------------------------------------ *)

module Liveness = struct
  module SSet = Set.Make (String)

  type t = {
    live_before : (int, SSet.t) Hashtbl.t;  (** instruction/terminator id → set *)
    live_out : (string, SSet.t) Hashtbl.t;  (** block label → live-out *)
  }

  let compute (f : Ir.func) : t =
    let phi_defs (b : Ir.block) =
      List.fold_left
        (fun s (i : Ir.instr) ->
          match i.result with Some r -> SSet.add r s | None -> s)
        SSet.empty b.phis
    in
    let phi_uses_from (b : Ir.block) ~(pred : string) =
      List.fold_left
        (fun s (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming ->
              List.fold_left
                (fun s (l, v) ->
                  match v with
                  | Ir.Reg r when String.equal l pred -> SSet.add r s
                  | Ir.Reg _ | Ir.Const _ | Ir.Undef -> s)
                s incoming
          | _ -> s)
        SSet.empty b.phis
    in
    (* Backward transfer through terminator and body; returns live at body
       start (before the first body instruction, after the φ-nodes). *)
    let through_block (b : Ir.block) (out : SSet.t) : SSet.t =
      let live = List.fold_left (fun s r -> SSet.add r s) out (Ir.term_uses b.term) in
      List.fold_left
        (fun live (i : Ir.instr) ->
          let live = match i.result with Some r -> SSet.remove r live | None -> live in
          List.fold_left (fun s r -> SSet.add r s) live (Ir.rhs_uses i.rhs))
        live (List.rev b.body)
    in
    let live_in = Hashtbl.create 16 in
    let live_out = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        Hashtbl.replace live_in b.label SSet.empty;
        Hashtbl.replace live_out b.label SSet.empty)
      f.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.block) ->
          let out =
            List.fold_left
              (fun acc s ->
                match Ir.find_block f s with
                | Some sb ->
                    SSet.union acc
                      (SSet.union (Hashtbl.find live_in s) (phi_uses_from sb ~pred:b.label))
                | None -> acc)
              SSet.empty (Ir.successors b)
          in
          let inn = SSet.diff (through_block b out) (phi_defs b) in
          if not (SSet.equal out (Hashtbl.find live_out b.label)) then begin
            Hashtbl.replace live_out b.label out;
            changed := true
          end;
          if not (SSet.equal inn (Hashtbl.find live_in b.label)) then begin
            Hashtbl.replace live_in b.label inn;
            changed := true
          end)
        (List.rev f.blocks)
    done;
    (* Final per-instruction pass. *)
    let live_before = Hashtbl.create 64 in
    List.iter
      (fun (b : Ir.block) ->
        let out = Hashtbl.find live_out b.label in
        let live = List.fold_left (fun s r -> SSet.add r s) out (Ir.term_uses b.term) in
        Hashtbl.replace live_before b.term_id live;
        let live =
          List.fold_left
            (fun live (i : Ir.instr) ->
              let live' =
                let l = match i.result with Some r -> SSet.remove r live | None -> live in
                List.fold_left (fun s r -> SSet.add r s) l (Ir.rhs_uses i.rhs)
              in
              Hashtbl.replace live_before i.id live';
              live')
            live (List.rev b.body)
        in
        List.iter (fun (i : Ir.instr) -> Hashtbl.replace live_before i.id live) b.phis)
      f.blocks;
    { live_before; live_out }

  let live_at (t : t) (id : int) : string list =
    match Hashtbl.find_opt t.live_before id with
    | Some s -> SSet.elements s
    | None -> []

  let is_live (t : t) (id : int) (r : string) : bool =
    match Hashtbl.find_opt t.live_before id with Some s -> SSet.mem r s | None -> false

  let live_out_of (t : t) (label : string) : string list =
    match Hashtbl.find_opt t.live_out label with Some s -> SSet.elements s | None -> []
end

(* ------------------------------------------------------------------ *)
(* Func_index consistency check                                         *)
(* ------------------------------------------------------------------ *)

module Func_index = struct
  include Miniir.Func_index

  (** Verify the index agrees with the linear accessors it replaces.
      Returns an error description on the first mismatch. *)
  let check (t : t) : (unit, string) result =
    let f = t.func in
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let rec check_blocks = function
      | [] -> Ok ()
      | (b : Ir.block) :: rest ->
          if Ir.find_block f b.label <> find_block t b.label then
            fail "block %S: index and Ir.find_block disagree" b.label
          else if List.sort compare (Ir.predecessors f b.label)
                  <> List.sort compare (predecessors t b.label)
          then fail "block %S: predecessor mismatch" b.label
          else if Ir.successors b <> successors t b.label then
            fail "block %S: successor mismatch" b.label
          else check_blocks rest
    in
    match check_blocks f.blocks with
    | Error _ as e -> e
    | Ok () ->
        let ok = ref (Ok ()) in
        let legacy_owner = Ir.block_of_instr f in
        Hashtbl.iter
          (fun id (label, _) ->
            if !ok = Ok () && Hashtbl.find_opt legacy_owner id <> Some label then
              ok := fail "instr #%d: owner mismatch" id)
          t.positions;
        (match !ok with
        | Ok () ->
            let legacy_defs = Ir.def_table f in
            Hashtbl.iter
              (fun r (d : Ir.def_site) ->
                match Hashtbl.find_opt legacy_defs r with
                | Some d' when d'.Ir.di == d.Ir.di -> ()
                | _ -> if !ok = Ok () then ok := fail "register %%%s: def-site mismatch" r)
              t.defs
        | Error _ -> ());
        !ok
end

(* ------------------------------------------------------------------ *)
(* SSA verifier                                                         *)
(* ------------------------------------------------------------------ *)

module Verifier = struct
  type error = Miniir.Verifier.error = { where : string; what : string }

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
    Hashtbl.length index.Func_index.positions <> !n_ids
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
end
