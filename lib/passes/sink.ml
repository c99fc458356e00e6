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
  let dom = Dom.compute index in
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
