open Import

(** mem2reg: promote alloca slots that are only loaded and stored into SSA
    registers, inserting φ-nodes at iterated dominance frontiers and
    renaming along the dominator tree.

    This is the front-end pass of the paper's pipeline — [fbase] is
    "clang -O0 followed by mem2reg" (Section 6.1) — so it runs {e before}
    OSR instrumentation and takes no CodeMapper. *)

module SMap = Map.Make (String)

(* Registers that appear anywhere but as the address operand of a load or
   store: an alloca whose register escapes this way is not promotable.  One
   scan of the function answers the question for every slot. *)
let escaped_regs (f : Ir.func) : (Ir.reg, unit) Hashtbl.t =
  let escaped = Hashtbl.create 64 in
  let mark v = match v with Ir.Reg r -> Hashtbl.replace escaped r () | Ir.Const _ | Ir.Undef -> () in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Load (Ir.Reg _) -> ()
          | Ir.Store (v, Ir.Reg _) -> mark v
          | rhs -> List.iter mark (Ir.rhs_operands rhs))
        (Ir.block_instrs b);
      List.iter mark (Ir.term_operands b.term))
    f.blocks;
  escaped

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

(* Every table below is built by one scan: the CFG does not change during
   the pass, and per slot or per φ there are only hash lookups.  Blocks
   resolve to the first block of a label and predecessors come in block
   order, as with the linear [Ir] accessors. *)
let run (f : Ir.func) : bool =
  let escaped = escaped_regs f in
  let slots =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with
            | Ir.Alloca 1, Some r when not (Hashtbl.mem escaped r) -> Some r
            | _ -> None)
          b.body)
      f.blocks
  in
  if slots = [] then false
  else begin
    let is_slot = Hashtbl.create 16 in
    List.iter (fun r -> Hashtbl.replace is_slot r ()) slots;
    let dom = Dom.compute f in
    let df = Dom.frontiers dom in
    let children = dom_children dom in
    let blocks = Ir.block_table f and preds = Hashtbl.create 64 in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun s -> Hashtbl.replace preds s (b.label :: Option.value ~default:[] (Hashtbl.find_opt preds s)))
          (Ir.successors b))
      f.blocks;
    let block_exn = Hashtbl.find blocks in
    let preds_of label = List.rev (Option.value ~default:[] (Hashtbl.find_opt preds label)) in
    (* Blocks storing to each slot, in block order. *)
    let def_blocks = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Store (_, Ir.Reg r) when Hashtbl.mem is_slot r && not (Hashtbl.mem seen r) ->
                Hashtbl.add seen r ();
                Hashtbl.replace def_blocks r
                  (b.label :: Option.value ~default:[] (Hashtbl.find_opt def_blocks r))
            | _ -> ())
          b.body)
      f.blocks;
    (* φ placement: iterated dominance frontier. *)
    let phi_slot : (int, string * Ir.reg) Hashtbl.t = Hashtbl.create 64 in
    (* placed φ id → (block, slot) *)
    List.iter
      (fun slot ->
        let worklist = Queue.create () in
        List.iter
          (fun b -> Queue.push b worklist)
          (List.rev (Option.value ~default:[] (Hashtbl.find_opt def_blocks slot)));
        let placed = Hashtbl.create 8 in
        let enqueued = Hashtbl.create 8 in
        while not (Queue.is_empty worklist) do
          let b = Queue.pop worklist in
          List.iter
            (fun d ->
              if not (Hashtbl.mem placed d) then begin
                Hashtbl.add placed d ();
                let blk = block_exn d in
                let phi =
                  {
                    Ir.id = Ir.fresh_id f;
                    result = Some (Ir.fresh_reg ~hint:(slot ^ ".phi") f);
                    rhs = Ir.Phi (List.map (fun p -> (p, Ir.Undef)) (preds_of d));
                  }
                in
                blk.phis <- blk.phis @ [ phi ];
                Hashtbl.replace phi_slot phi.id (d, slot);
                if not (Hashtbl.mem enqueued d) then begin
                  Hashtbl.add enqueued d ();
                  Queue.push d worklist
                end
              end)
            (Option.value ~default:[] (Hashtbl.find_opt df b))
        done)
      slots;
    (* The slot of a φ this pass placed in block [label]. *)
    let slot_of_phi label (i : Ir.instr) =
      match Hashtbl.find_opt phi_slot i.id with
      | Some (l, slot) when String.equal l label -> Some slot
      | _ -> None
    in
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
      let blk = block_exn label in
      let env = ref env in
      (* φ-nodes of this block define new current values. *)
      List.iter
        (fun (i : Ir.instr) ->
          match (slot_of_phi label i, i.result) with
          | Some slot, Some r -> env := SMap.add slot (Ir.Reg r) !env
          | _ -> ())
        blk.phis;
      (* Body: consume loads/stores of promotable slots. *)
      blk.body <-
        List.filter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Load (Ir.Reg a) when Hashtbl.mem is_slot a ->
                let v =
                  match SMap.find_opt a !env with Some v -> resolve v | None -> Ir.Undef
                in
                (match i.result with
                | Some r -> Hashtbl.replace replacements r v
                | None -> ());
                false
            | Ir.Store (v, Ir.Reg a) when Hashtbl.mem is_slot a ->
                env := SMap.add a (resolve v) !env;
                false
            | Ir.Alloca _ when
                (match i.result with Some r -> Hashtbl.mem is_slot r | None -> false) ->
                false
            | _ -> true)
          blk.body;
      (* Fill φ incomings of successors from this edge. *)
      List.iter
        (fun s ->
          List.iter
            (fun (phi : Ir.instr) ->
              match slot_of_phi s phi with
              | Some slot ->
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
              | None -> ())
            (block_exn s).phis)
        (Ir.successors blk);
      List.iter
        (fun c -> walk c !env)
        (Option.value ~default:[] (Hashtbl.find_opt children label))
    in
    walk (Ir.entry f).label SMap.empty;
    (* Rewrite every remaining use of replaced load results, counting the
       uses of every register and collecting the φs on the way. *)
    let uses : (Ir.reg, int ref) Hashtbl.t = Hashtbl.create 256 in
    let count delta v =
      match v with
      | Ir.Reg r -> (
          match Hashtbl.find_opt uses r with
          | Some n -> n := !n + delta
          | None -> Hashtbl.add uses r (ref delta))
      | Ir.Const _ | Ir.Undef -> ()
    in
    let phis_defining : (Ir.reg, Ir.instr list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (b : Ir.block) ->
        let rewrite (i : Ir.instr) =
          i.rhs <- Ir.map_rhs_operands resolve i.rhs;
          List.iter (count 1) (Ir.rhs_operands i.rhs)
        in
        List.iter
          (fun (i : Ir.instr) ->
            rewrite i;
            match (i.rhs, i.result) with
            | Ir.Phi _, Some r ->
                Hashtbl.replace phis_defining r
                  (i :: Option.value ~default:[] (Hashtbl.find_opt phis_defining r))
            | _ -> ())
          b.phis;
        List.iter rewrite b.body;
        b.term <- Ir.map_term_operands resolve b.term;
        List.iter (count 1) (Ir.term_operands b.term))
      f.blocks;
    (* Prune unused φ-nodes ("pruned SSA"): the frontier placement inserts
       φs whether or not a read follows.  Dropping a φ nobody uses releases
       its operands, which may leave other φs unused; the worklist reaches
       the same fixpoint as rescanning until nothing changes, since a φ's
       removal never depends on the order. *)
    let used r = match Hashtbl.find_opt uses r with Some n -> !n > 0 | None -> false in
    let dead = Hashtbl.create 64 in
    let work = Queue.create () in
    Hashtbl.iter (fun r _ -> if not (used r) then Queue.push r work) phis_defining;
    while not (Queue.is_empty work) do
      let r = Queue.pop work in
      if not (Hashtbl.mem dead r) then begin
        Hashtbl.add dead r ();
        List.iter
          (fun (i : Ir.instr) ->
            List.iter
              (fun v ->
                count (-1) v;
                match v with
                | Ir.Reg u when Hashtbl.mem phis_defining u && not (used u) -> Queue.push u work
                | _ -> ())
              (Ir.rhs_operands i.rhs))
          (Hashtbl.find phis_defining r)
      end
    done;
    if Hashtbl.length dead > 0 then
      List.iter
        (fun (b : Ir.block) ->
          b.phis <-
            List.filter
              (fun (i : Ir.instr) ->
                match (i.rhs, i.result) with
                | Ir.Phi _, Some r -> not (Hashtbl.mem dead r)
                | _ -> true)
              b.phis)
        f.blocks;
    true
  end
