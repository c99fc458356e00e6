open Import

(** Common subexpression elimination in the style of LLVM's EarlyCSE:
    a dominator-tree walk with a scoped hash table of available pure
    expressions (always sound in SSA — a value, once computed, never
    changes), plus {e block-local} redundant-load elimination and
    store-to-load forwarding tracked per memory generation — any store or
    impure call starts a new generation, exactly the "available load from
    right generation" check in the paper's Figure 6 excerpt.

    Load availability is deliberately not propagated across blocks: with an
    all-may-alias memory model, a fact recorded in a dominator is invalidated
    by stores on {e any} CFG path into the current block (sibling branch
    arms, loop back edges), which the dominator walk does not see.

    OSR-aware: replaced uses and deletions are recorded (this mirrors the
    instrumented CSE of Figure 6).

    A replace is recorded when it is made and carried out lazily: the walk
    reads every instruction's operands through the replacements made so
    far before looking at it, and one walk at the end rewrites the rest of
    the function, so the output is that of rewriting the whole function at
    each replace. *)

(* Available expressions, keyed by the rhs itself: two pure rhs are the
   same expression when they are equal after {!rhs_key} puts the operands
   of a commutative operation in a canonical order. *)
module Exprs = Hashtbl.Make (struct
  type t = Ir.rhs

  let equal = Ir.equal_rhs
  let hash (r : Ir.rhs) = Hashtbl.hash r
end)

let rhs_key (rhs : Ir.rhs) : Ir.rhs option =
  match rhs with
  | Ir.Binop (((Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor) as op), a, b) ->
      (* Normalize commutative operations. *)
      Some (if compare a b <= 0 then rhs else Ir.Binop (op, b, a))
  | Ir.Binop _ | Ir.Icmp _ | Ir.Select _ -> Some rhs
  | Ir.Call (name, _) when Ir.is_pure_call name -> Some rhs
  | Ir.Call _ | Ir.Alloca _ | Ir.Load _ | Ir.Store _ | Ir.Phi _ -> None

let stat_expr = Telemetry.counter ~group:"cse" "expr" ~desc:"redundant pure expressions eliminated"
let stat_load = Telemetry.counter ~group:"cse" "load" ~desc:"redundant loads forwarded"

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let tel = Code_mapper.telemetry m in
  let changed = ref false in
  let dom = Dom.compute (Func_index.make f) in
  let children = Mem2reg.dom_children dom in
  let avail : Ir.value Exprs.t = Exprs.create 64 in
  let avail_loads : (Ir.value, Ir.value * int) Hashtbl.t = Hashtbl.create 16 in
  (* address → (value, generation) *)
  let generation = ref 0 in
  (* Replaced register → the value that replaced it. *)
  let replaced : Ir.value Ir.Names.t = Ir.Names.create 16 in
  let rec current v =
    match v with
    | Ir.Reg r -> ( match Ir.Names.find_opt replaced r with Some v' -> current v' | None -> v)
    | Ir.Const _ | Ir.Undef -> v
  in
  let is_replaced v = match v with Ir.Reg r -> Ir.Names.mem replaced r | Ir.Const _ | Ir.Undef -> false in
  let update (i : Ir.instr) =
    if Ir.exists_rhs_operand is_replaced i.rhs then i.rhs <- Ir.map_rhs_operands current i.rhs
  in
  let rec walk (node : int) : unit =
    let blk = dom.index.blocks.(node) in
    let label = blk.label in
    (* Load facts are block-local; expression facts are scoped and undone
       on exit from this dominator subtree. *)
    Hashtbl.reset avail_loads;
    incr generation;
    let added_exprs = ref [] in
    blk.body <-
      List.filter
        (fun (i : Ir.instr) ->
          if Ir.Names.length replaced > 0 then update i;
          match i.rhs with
          | Ir.Store (v, addr) ->
              incr generation;
              Hashtbl.replace avail_loads addr (v, !generation);
              true
          | Ir.Call (name, _) when not (Ir.is_pure_call name) ->
              incr generation;
              true
          | Ir.Load addr -> (
              match (Hashtbl.find_opt avail_loads addr, i.result) with
              | Some (v, gen), Some r when gen = !generation ->
                  (* Available load (or store-forwarded value) from the
                     current generation: reuse it. *)
                  Code_mapper.replaced_all_uses m ~old_value:(Ir.Reg r) ~new_value:v;
                  Ir.Names.replace replaced r v;
                  Code_mapper.delete_instr m i;
                  Telemetry.bump tel stat_load;
                  Telemetry.remark tel ~pass:"CSE" ~func:f.fname ~block:label ~instr:i.id
                    (fun () ->
                      Printf.sprintf "forwarded load %%%s from %s" r (Ir.value_to_string v));
                  changed := true;
                  false
              | _, Some r ->
                  Hashtbl.replace avail_loads addr (Ir.Reg r, !generation);
                  true
              | _, None -> true)
          | rhs -> (
              match (rhs_key rhs, i.result) with
              | Some key, Some r -> (
                  match Exprs.find_opt avail key with
                  | Some v ->
                      Code_mapper.replaced_all_uses m ~old_value:(Ir.Reg r) ~new_value:v;
                      Ir.Names.replace replaced r v;
                      Code_mapper.delete_instr m i;
                      Telemetry.bump tel stat_expr;
                      Telemetry.remark tel ~pass:"CSE" ~func:f.fname ~block:label ~instr:i.id
                        (fun () ->
                          Printf.sprintf "%%%s subsumed by %s" r (Ir.value_to_string v));
                      changed := true;
                      false
                  | None ->
                      added_exprs := key :: !added_exprs;
                      Exprs.replace avail key (Ir.Reg r);
                      true)
              | _, _ -> true))
        blk.body;
    List.iter walk children.(node);
    (* Undo this scope's expression facts. *)
    List.iter (fun k -> Exprs.remove avail k) !added_exprs
  in
  walk 0;
  if Ir.Names.length replaced > 0 then
    List.iter
      (fun (b : Ir.block) ->
        List.iter update b.phis;
        List.iter update b.body;
        if Ir.exists_term_operand is_replaced b.term then b.term <- Ir.map_term_operands current b.term)
      f.blocks;
  !changed
