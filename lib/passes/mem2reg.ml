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

(* Dominator-tree children by node, from the CHK idom array. *)
let dom_children (dom : Dom.t) : int list array =
  let children = Array.make (Array.length dom.index.labels) [] in
  Array.iteri
    (fun i v ->
      if i > 0 && dom.idom.(i) >= 0 then begin
        let parent = dom.order.(dom.idom.(i)) in
        children.(parent) <- v :: children.(parent)
      end)
    dom.order;
  children

(* Every table below is built by one scan: the CFG does not change during
   the pass, so one index numbers the blocks throughout, and per slot or
   per φ there are only lookups. *)
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
    let index = Func_index.make f in
    let dom = Dom.compute index in
    let df = Dom.frontiers dom in
    let children = dom_children dom in
    let blocks = index.blocks in
    (* Blocks storing to each slot, in block order. *)
    let def_blocks = Hashtbl.create 16 in
    Array.iteri
      (fun k (b : Ir.block) ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Store (_, Ir.Reg r) when Hashtbl.mem is_slot r && not (Hashtbl.mem seen r) ->
                Hashtbl.add seen r ();
                Hashtbl.replace def_blocks r
                  (k :: Option.value ~default:[] (Hashtbl.find_opt def_blocks r))
            | _ -> ())
          b.body)
      blocks;
    (* φ placement: iterated dominance frontier.  [placed.(d)] and
       [enqueued.(d)] hold the number of the last slot that placed a φ in
       block [d] or queued it. *)
    let phi_slot : (int, int * Ir.reg) Hashtbl.t = Hashtbl.create 64 in
    (* placed φ id → (block, slot) *)
    let placed = Array.make (Array.length blocks) (-1) in
    let enqueued = Array.make (Array.length blocks) (-1) in
    List.iteri
      (fun n slot ->
        let worklist = Queue.create () in
        List.iter
          (fun b -> Queue.push b worklist)
          (List.rev (Option.value ~default:[] (Hashtbl.find_opt def_blocks slot)));
        while not (Queue.is_empty worklist) do
          let b = Queue.pop worklist in
          List.iter
            (fun d ->
              if placed.(d) <> n then begin
                placed.(d) <- n;
                let blk = blocks.(d) in
                let phi =
                  {
                    Ir.id = Ir.fresh_id f;
                    result = Some (Ir.fresh_reg ~hint:(slot ^ ".phi") f);
                    rhs = Ir.Phi (List.map (fun p -> (p, Ir.Undef)) (Func_index.labels_of index index.preds.(d)));
                  }
                in
                blk.phis <- blk.phis @ [ phi ];
                Hashtbl.replace phi_slot phi.id (d, slot);
                if enqueued.(d) <> n then begin
                  enqueued.(d) <- n;
                  Queue.push d worklist
                end
              end)
            df.(b)
        done)
      slots;
    (* The slot of a φ this pass placed in block [k]. *)
    let slot_of_phi k (i : Ir.instr) =
      match Hashtbl.find_opt phi_slot i.id with
      | Some (d, slot) when d = k -> Some slot
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
    let rec walk (k : int) (env : Ir.value SMap.t) : unit =
      let blk = blocks.(k) in
      let env = ref env in
      (* φ-nodes of this block define new current values. *)
      List.iter
        (fun (i : Ir.instr) ->
          match (slot_of_phi k i, i.result) with
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
                             (fun (l, old) -> if String.equal l blk.label then (l, v) else (l, old))
                             incoming)
                    | rhs -> rhs)
              | None -> ())
            blocks.(s).phis)
        index.succs.(k);
      List.iter (fun c -> walk c !env) children.(k)
    in
    walk 0 SMap.empty;
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
