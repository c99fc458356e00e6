open Import

(** Continuation-function generation (Section 5.4): the OSR transition is
    modeled as a call that transfers the live state to [f'to], a
    specialization of the target version with the landing point as its
    unique entry.  [f'to]'s entry block executes the compensation code,
    then control flows to the landing instruction.

    Construction (all on a clone of the target):
    {ol
    {- split the landing block [B] into [B] (φ-nodes and the body prefix)
       and [B$tail] (the landing instruction onward, plus the original
       terminator); successor φ-incomings from [B] are renamed to [B$tail];}
    {- demote every register that must cross the entry seam — destination
       registers live at the landing plus compensation results — to a
       one-cell alloca: defs are followed by a store, uses become loads;}
    {- build a fresh entry: allocas, parameter spills ([osr$]-prefixed
       parameters carry the transferred source values), compensation
       instructions, stores of their results, then [br B$tail];}
    {- remove blocks unreachable from the new entry ("deleting unreachable
       blocks yields more compact code"), and re-promote the slots with
       mem2reg, which rebuilds clean SSA with proper φ-nodes.}}

    The result verifies under the standard SSA rules.

    The demotion works on the target's register numbering (its liveness,
    which step 2 needs anyway): whether a register is defined by an
    instruction and whether it is demoted are flags per register id, and
    the rewrite looks each register operand's id up in its liveness'
    table.  The re-promotion reuses the block index of
    the unreachable-block removal when that removed nothing.

    A continuation also carries what every firing needs and [f'to] alone
    determines, computed here once: χ's extent, and
    whether χ can write memory (when it cannot, the runtime takes no
    memory snapshot).  Its compiled program ([compiled]) is built by the
    compiled engine on the first firing and reused by every later one, so
    [f'to] is compiled once however often the continuation fires; it lives
    as long as the continuation.  [f'to] is never mutated after
    [generate]. *)

type t = {
  fto : Ir.func;
  param_sources : Ir.value list;
      (** for each parameter of [fto], the {e source-side} value the caller
          must pass (register of the source frame, or constant) *)
  landing : int;  (** the landing instruction id, unchanged in [fto] *)
  live_in : Ir.reg list;
      (** registers of [fto] live into [landing] — the definedness
          obligation a reconstructed frame must meet before the transition
          may commit *)
  chi_steps : int;
      (** steps of χ, [fto]'s entry block: its body and its terminator (no
          edge re-enters the entry block of a verified function) *)
  chi_writes_memory : bool;  (** χ holds a [store] or an [alloca] *)
  compiled : Tinyvm.Compile.cached;  (** [fto]'s program, compiled on first use *)
}

let param_prefix = "osr$"

(* Remove blocks unreachable from the entry.  Returns the function's
   index when nothing was removed (it is then still [f]'s). *)
let drop_unreachable (f : Ir.func) : Func_index.t option =
  let index = Func_index.make f in
  let nb = Array.length index.blocks in
  let seen = Array.make nb false in
  let rec dfs k =
    if k < nb && not seen.(k) then begin
      seen.(k) <- true;
      List.iter dfs index.succs.(k)
    end
  in
  dfs 0;
  if not (Array.exists not seen) then Some index
  else begin
    (* A label names its last block: an incoming from a label is dropped
       when that block is. *)
    let removed l =
      let k = Func_index.block_number index l in
      k >= 0 && not seen.(k)
    in
    f.blocks <- List.filteri (fun k _ -> seen.(k)) f.blocks;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                i.rhs <- Ir.Phi (List.filter (fun (l, _) -> not (removed l)) incoming)
            | _ -> ())
          b.phis)
      f.blocks;
    None
  end

(** Generate [f'to] for a transition into [target] at instruction
    [landing], running [plan] on entry.  [promote] controls the final
    mem2reg re-promotion (on by default; off is useful to inspect the raw
    demoted form). *)
let generate ?(promote = true) (target : Ir.func) ~(landing : int)
    (plan : Reconstruct_ir.plan) : t =
  let f = Ir.clone_func target in
  let lb =
    match
      List.find_opt
        (fun (b : Ir.block) ->
          let at (i : Ir.instr) = i.id = landing in
          b.term_id = landing || List.exists at b.phis || List.exists at b.body)
        f.blocks
    with
    | Some b -> b
    | None ->
        raise
          (Osr_error.Error (Osr_error.No_such_point { func = target.fname; point = landing }))
  in
  (* --- 1. Split the landing block. --------------------------------- *)
  let landing_block = lb.label in
  let tail_label = landing_block ^ "$tail" in
  let rec split acc = function
    | [] -> (List.rev acc, [])  (* landing at the terminator *)
    | (i : Ir.instr) :: rest ->
        if i.id = landing then (List.rev acc, i :: rest) else split (i :: acc) rest
  in
  let prefix, tail_body = split [] lb.body in
  let tail =
    {
      Ir.label = tail_label;
      phis = [];
      body = tail_body;
      term = lb.term;
      term_id = lb.term_id;
    }
  in
  let head_term_id = Ir.fresh_id f in
  let head =
    { Ir.label = lb.label; phis = lb.phis; body = prefix; term = Ir.Br tail_label;
      term_id = head_term_id }
  in
  f.blocks <-
    List.concat_map
      (fun (b : Ir.block) ->
        if String.equal b.label landing_block then [ head; tail ] else [ b ])
      f.blocks;
  (* Successor φ-incomings that named the landing block now come from the
     tail (which carries the original terminator). *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming when List.exists (fun (l, _) -> String.equal l landing_block) incoming
            ->
              i.rhs <-
                Ir.Phi
                  (List.map
                     (fun (l, v) ->
                       if String.equal l landing_block then (tail_label, v) else (l, v))
                     incoming)
          | _ -> ())
        b.phis)
    f.blocks;
  (* --- 2. Demotion set. --------------------------------------------- *)
  (* Registers are the target's, numbered by its liveness; the demotion
     set is a flag per register id. *)
  let target_liveness = Liveness.compute (Func_index.make target) in
  let target_live = Liveness.live_at target_liveness landing in
  let id_of r = match Liveness.id_of target_liveness r with Some x -> x | None -> -1 in
  let nregs = Array.length target_liveness.names in
  let instr_defined = Array.make nregs false in
  List.iter
    (fun (b : Ir.block) ->
      let def (i : Ir.instr) =
        match i.result with
        | Some r ->
            let x = id_of r in
            if x >= 0 then instr_defined.(x) <- true
        | None -> ()
      in
      List.iter def b.phis;
      List.iter def b.body)
    target.blocks;
  let is_instr_defined r =
    let x = id_of r in
    x >= 0 && instr_defined.(x)
  in
  let demoted =
    List.sort_uniq String.compare
      (List.filter is_instr_defined
         (List.map fst plan.transfers @ List.map (fun (c : Reconstruct_ir.comp_instr) -> c.target) plan.comp)
      @ List.filter is_instr_defined target_live)
  in
  let demoted_ids = Array.make nregs false in
  List.iter (fun r -> demoted_ids.(id_of r) <- true) demoted;
  let is_demoted r =
    let x = id_of r in
    x >= 0 && demoted_ids.(x)
  in
  let slot_of r = r ^ "$slot" in
  (* Rewrite uses to loads, defs get a trailing store.  A block's new body
     is gathered newest first in [out]. *)
  let demoted_reg v = match v with Ir.Reg r -> is_demoted r | Ir.Const _ | Ir.Undef -> false in
  let store_of r =
    { Ir.id = Ir.fresh_id f; result = None; rhs = Ir.Store (Ir.Reg r, Ir.Reg (slot_of r)) }
  in
  List.iter
    (fun (b : Ir.block) ->
      let out = ref [] in
      (* A load of [r]'s slot into a fresh register named after [hint]. *)
      let reload hint v =
        match v with
        | Ir.Reg r when is_demoted r ->
            let tmp = Ir.fresh_reg ~hint:(r ^ hint) f in
            out :=
              { Ir.id = Ir.fresh_id f; result = Some tmp; rhs = Ir.Load (Ir.Reg (slot_of r)) }
              :: !out;
            Ir.Reg tmp
        | _ -> v
      in
      (* φ-node results of demoted registers are stored to their slots. *)
      List.iter
        (fun (i : Ir.instr) ->
          match i.result with Some r when is_demoted r -> out := store_of r :: !out | _ -> ())
        b.phis;
      List.iter
        (fun (i : Ir.instr) ->
          (* Loads for demoted operands (φ-nodes excepted: their reads
             happen at the edge, and their incomings keep the
             registers). *)
          (match i.rhs with
          | Ir.Phi _ -> ()
          | rhs -> if Ir.exists_rhs_operand demoted_reg rhs then i.rhs <- Ir.map_rhs_operands (reload ".r") rhs);
          out := i :: !out;
          match i.result with Some r when is_demoted r -> out := store_of r :: !out | _ -> ())
        b.body;
      (* Terminator operands reading demoted registers re-load the slot at
         the end of the block. *)
      if Ir.exists_term_operand demoted_reg b.term then b.term <- Ir.map_term_operands (reload ".t") b.term;
      b.body <- List.rev !out)
    f.blocks;
  (* φ incomings reading demoted registers: re-read the slot at the end of
     the predecessor unconditionally (the new entry edge breaks dominance
     for the original definitions; the slot always carries the live value,
     and mem2reg re-promotion removes the loads that were unnecessary). *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming when List.exists (fun (_, v) -> demoted_reg v) incoming ->
              i.rhs <-
                Ir.Phi
                  (List.map
                     (fun (l, v) ->
                       match v with
                       | Ir.Reg r when is_demoted r -> (
                           match Ir.find_block f l with
                           | Some pb ->
                               let tmp = Ir.fresh_reg ~hint:(r ^ ".e") f in
                               pb.body <-
                                 pb.body
                                 @ [ { Ir.id = Ir.fresh_id f; result = Some tmp;
                                       rhs = Ir.Load (Ir.Reg (slot_of r)) } ];
                               (l, Ir.Reg tmp)
                           | None -> (l, v))
                       | _ -> (l, v))
                     incoming)
          | _ -> ())
        b.phis)
    f.blocks;
  (* --- 3. Fresh entry: params, allocas, spills, compensation. ------- *)
  (* Every distinct source value the transfers read, in first-use order. *)
  let params_needed =
    List.rev
      (List.fold_left
         (fun acc (_, v) ->
           match v with Ir.Reg y when not (List.mem y acc) -> y :: acc | _ -> acc)
         [] plan.transfers)
  in
  let param_name y = param_prefix ^ y in
  let entry_label = "osr.entry" in
  let entry_body = ref [] in
  let emit rhs result =
    entry_body := { Ir.id = Ir.fresh_id f; result; rhs } :: !entry_body
  in
  (* Allocas for the demoted slots. *)
  List.iter (fun r -> emit (Ir.Alloca 1) (Some (slot_of r))) demoted;
  (* Spill transferred values. *)
  List.iter
    (fun (x', v) ->
      let incoming =
        match v with Ir.Reg y -> Ir.Reg (param_name y) | (Ir.Const _ | Ir.Undef) as c -> c
      in
      if is_demoted x' then emit (Ir.Store (incoming, Ir.Reg (slot_of x'))) None
      else
        (* x' is a function parameter of the target; pass it through as a
           parameter of f'to directly (no demotion needed). *)
        ())
    plan.transfers;
  (* Compensation instructions: operands referring to demoted registers go
     through their slots. *)
  List.iter
    (fun (c : Reconstruct_ir.comp_instr) ->
      let fix v =
        match v with
        | Ir.Reg r when is_demoted r ->
            let tmp = Ir.fresh_reg ~hint:(r ^ ".c") f in
            emit (Ir.Load (Ir.Reg (slot_of r))) (Some tmp);
            Ir.Reg tmp
        | Ir.Reg r when List.mem r f.params ->
            (* Target parameters reach the compensation code through the
               osr$-prefixed transfer parameter (the parameter itself is
               only a parameter of f'to when live at the landing). *)
            if List.mem r params_needed then Ir.Reg (param_name r) else Ir.Reg r
        | v -> v
      in
      let rhs' = Ir.map_rhs_operands fix c.rhs in
      let tmp = Ir.fresh_reg ~hint:(c.target ^ ".v") f in
      emit rhs' (Some tmp);
      if is_demoted c.target then emit (Ir.Store (Ir.Reg tmp, Ir.Reg (slot_of c.target))) None)
    plan.comp;
  let entry =
    {
      Ir.label = entry_label;
      phis = [];
      body = List.rev !entry_body;
      term = Ir.Br tail_label;
      term_id = Ir.fresh_id f;
    }
  in
  (* Function-parameter live values: any target parameter live at landing
     must be supplied by the caller as well; they keep their names. *)
  let live_params = List.filter (Liveness.is_live target_liveness landing) target.params in
  let transfer_params = List.map param_name params_needed in
  let fto =
    {
      Ir.fname = target.fname ^ "$to" ^ string_of_int landing;
      params = live_params @ transfer_params;
      blocks = entry :: f.blocks;
      next_id = f.next_id;
      next_reg = f.next_reg;
    }
  in
  let index = drop_unreachable fto in
  if promote then ignore (Passes.Mem2reg.run ?index fto : bool);
  let param_sources =
    List.map (fun p -> Ir.Reg p) live_params @ List.map (fun y -> Ir.Reg y) params_needed
  in
  (* The validation obligation: registers of the finished [fto] live into
     the landing instruction.  The landing id survives splitting, demotion
     and re-promotion (it is never rewritten), so recompute liveness on the
     final body; a point liveness does not know is a broken construction
     invariant. *)
  let live = Liveness.compute (Func_index.make fto) in
  let live_in =
    if Liveness.bits_at live landing = None then
      raise
        (Osr_error.Error
           (Osr_error.Internal
              { what = Printf.sprintf "Contfun.generate: landing #%d lost in @%s" landing fto.fname }))
    else Liveness.live_at live landing
  in
  let chi = (Ir.entry fto).body in
  {
    fto;
    param_sources;
    landing;
    live_in;
    chi_steps = List.length chi + 1;
    chi_writes_memory =
      List.exists
        (fun (i : Ir.instr) -> match i.rhs with Ir.Store _ | Ir.Alloca _ -> true | _ -> false)
        chi;
    compiled = Tinyvm.Compile.cached fto;
  }
