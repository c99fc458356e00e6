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
    instrumented CSE of Figure 6). *)

let rhs_key (rhs : Ir.rhs) : string option =
  match rhs with
  | Ir.Binop (op, a, b) ->
      (* Normalize commutative operations. *)
      let sa = Ir.value_to_string a and sb = Ir.value_to_string b in
      let sa, sb =
        match op with
        | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> if sa <= sb then (sa, sb) else (sb, sa)
        | Ir.Sub | Ir.Sdiv | Ir.Srem | Ir.Shl | Ir.Lshr | Ir.Ashr -> (sa, sb)
      in
      Some (Printf.sprintf "%s %s %s" (Ir.binop_name op) sa sb)
  | Ir.Icmp (op, a, b) ->
      Some
        (Printf.sprintf "icmp %s %s %s" (Ir.icmp_name op) (Ir.value_to_string a)
           (Ir.value_to_string b))
  | Ir.Select (c, t, e) ->
      Some
        (Printf.sprintf "select %s %s %s" (Ir.value_to_string c) (Ir.value_to_string t)
           (Ir.value_to_string e))
  | Ir.Call (name, args) when Ir.is_pure_call name ->
      Some
        (Printf.sprintf "call %s %s" name (String.concat " " (List.map Ir.value_to_string args)))
  | Ir.Call _ | Ir.Alloca _ | Ir.Load _ | Ir.Store _ | Ir.Phi _ -> None

let stat_expr = Telemetry.counter ~group:"cse" "expr" ~desc:"redundant pure expressions eliminated"
let stat_load = Telemetry.counter ~group:"cse" "load" ~desc:"redundant loads forwarded"

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let tel = Code_mapper.telemetry m in
  let changed = ref false in
  let dom = Dom.compute (Func_index.make f) in
  let children = Mem2reg.dom_children dom in
  let avail : (string, Ir.value) Hashtbl.t = Hashtbl.create 64 in
  let avail_loads : (string, Ir.value * int) Hashtbl.t = Hashtbl.create 16 in
  (* address string → (value, generation) *)
  let generation = ref 0 in
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
          match i.rhs with
          | Ir.Store (v, addr) ->
              incr generation;
              Hashtbl.replace avail_loads (Ir.value_to_string addr) (v, !generation);
              true
          | Ir.Call (name, _) when not (Ir.is_pure_call name) ->
              incr generation;
              true
          | Ir.Load addr -> (
              let key = Ir.value_to_string addr in
              match (Hashtbl.find_opt avail_loads key, i.result) with
              | Some (v, gen), Some r when gen = !generation ->
                  (* Available load (or store-forwarded value) from the
                     current generation: reuse it. *)
                  Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v;
                  Code_mapper.delete_instr m i;
                  Telemetry.bump tel stat_load;
                  Telemetry.remark tel ~pass:"CSE" ~func:f.fname ~block:label ~instr:i.id
                    (fun () ->
                      Printf.sprintf "forwarded load %%%s from %s" r (Ir.value_to_string v));
                  changed := true;
                  false
              | _, Some r ->
                  Hashtbl.replace avail_loads key (Ir.Reg r, !generation);
                  true
              | _, None -> true)
          | rhs -> (
              match (rhs_key rhs, i.result) with
              | Some key, Some r -> (
                  match Hashtbl.find_opt avail key with
                  | Some v ->
                      Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v;
                      Code_mapper.delete_instr m i;
                      Telemetry.bump tel stat_expr;
                      Telemetry.remark tel ~pass:"CSE" ~func:f.fname ~block:label ~instr:i.id
                        (fun () ->
                          Printf.sprintf "%%%s subsumed by %s" r (Ir.value_to_string v));
                      changed := true;
                      false
                  | None ->
                      added_exprs := key :: !added_exprs;
                      Hashtbl.replace avail key (Ir.Reg r);
                      true)
              | _, _ -> true))
        blk.body;
    List.iter walk children.(node);
    (* Undo this scope's expression facts. *)
    List.iter (fun k -> Hashtbl.remove avail k) !added_exprs
  in
  walk 0;
  !changed
