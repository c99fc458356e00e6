open Import

(** Code sinking (the paper's Sink): move a pure instruction whose uses all
    sit in a single dominated block down into that block, shrinking live
    ranges across branches.

    Rules: only non-trapping pure rhs (nothing {!Ir.may_trap} accepts —
    sinking may skip a trap the original executed — and no loads —
    sinking past a store would change the value); no uses in φ-nodes or
    terminators; the destination must be a different block dominated by
    the defining block (so operands and the moved definition still
    dominate every use).  OSR-aware: each motion is recorded as a [sink]
    action.

    Sinking moves instructions but never changes an operand, so one
    register table ({!Func_index.registers}) gives every register's users
    for the whole run.  Where a body user sits is read from an owner array
    by point: the live one, updated by each motion, says whether an
    instruction is still in the body being walked, and a copy taken at the
    start of each fixpoint round gives the block of every use, so a round
    decides on the blocks its uses had when it began. *)

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
  let dom = Dom.compute index in
  let regs = Func_index.registers index in
  let owner = Array.copy index.point_block in
  (* Is point [p] a body instruction?  φ-nodes sit at position 0, and
     terminators have no instruction. *)
  let in_body p = index.point_pos.(p) > 0 && regs.instr.(p) != Func_index.no_instr in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let round_owner = Array.copy owner in
    Array.iteri
      (fun k (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            if owner.(i.id) = k && sinkable_rhs i.rhs then
              let v = regs.result.(i.id) in
              if v >= 0 then
                match regs.users.(v) with
                | p :: rest when List.for_all in_body regs.users.(v) ->
                    let target = round_owner.(p) in
                    if
                      List.for_all (fun q -> round_owner.(q) = target) rest
                      && target <> k
                      && Dom.dominates dom k target
                    then begin
                      let tb = index.blocks.(target) in
                      b.body <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.body;
                      tb.body <- i :: tb.body;
                      owner.(i.id) <- target;
                      Code_mapper.sink_instr m i ~from_block:b.label ~to_block:tb.label;
                      changed := true;
                      continue_ := true
                    end
                | _ -> ())
          b.body)
      index.blocks
  done;
  !changed
