(** Test-only oracles for the MiniIR analyses, moved out of the library:
    the original [Set.Make(String)] liveness that the bitset
    [Miniir.Liveness] replaced, and the cross-check of a [Func_index]
    against the linear [Ir] accessors it replaces.  [Suite_miniir] runs
    both against the library on generated functions. *)

module Ir = Miniir.Ir

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
          (fun id label ->
            if !ok = Ok () && Hashtbl.find_opt legacy_owner id <> Some label then
              ok := fail "instr #%d: owner mismatch" id)
          t.owner;
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
