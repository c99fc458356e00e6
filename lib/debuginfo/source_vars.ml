(** Source-variable tracking (Section 7.2): the analogue of LLVM's
    [llvm.dbg.value] metadata.  The corpus DSL names every definition of a
    user variable [u] as [u.def.K] and mem2reg names merge φ-nodes
    [u.slot.phi.K], so a user variable's {e family} — the set of IR values
    that carry it — is recoverable from register names.

    [tracked_at] answers the debugger's question: which IR value holds each
    user variable just before point [l] in [fbase]?  A variable is tracked
    only when exactly one family definition reaches the point on every path
    (conservative: at merges whose φ was pruned, the variable is reported
    as untracked rather than with a stale value).

    One linear pass per function: a register → variables table, each
    block's last family definition per variable, a worklist fixpoint over
    the index's block graph, then one forward walk per block that records
    the tracked variables at every point it passes, in an array by id —
    O(N·V + points·V) for N instructions and V user variables. *)

module Ir = Miniir.Ir
module Func_index = Miniir.Func_index

type t = { at : (string * Ir.reg) list array  (** point id → tracked vars *) }

let family_prefixes (u : string) = (u ^ ".def.", u ^ ".slot.phi.")

let in_family (def, phi) (r : Ir.reg) =
  String.starts_with ~prefix:def r || String.starts_with ~prefix:phi r

let family_of (fbase : Ir.func) (u : string) : Ir.reg list =
  let prefixes = family_prefixes u in
  List.filter_map
    (fun (i : Ir.instr) ->
      match i.result with Some r when in_family prefixes r -> Some r | _ -> None)
    (Ir.all_instrs fbase)

(* Per-variable reaching analysis over a flat lattice: Unvisited = no path
   seen yet (the bottom), Nothing = no family definition on the paths
   seen, Unique r = exactly def r on every path, Conflict = anything else
   (the top).  [Nothing ⊔ Unique r] is a conflict: [r] is undefined on
   the paths without a definition. *)
type reach = Unvisited | Nothing | Unique of Ir.reg | Conflict

let join a b =
  match (a, b) with
  | Unvisited, x | x, Unvisited -> x
  | Nothing, Nothing -> Nothing
  | Unique r1, Unique r2 when String.equal r1 r2 -> a
  | _ -> Conflict

(** Track [user_vars] over the function [index] was built from. *)
let analyze (index : Func_index.t) ~(user_vars : string list) : t =
  let vars = Array.of_list user_vars in
  let nv = Array.length vars in
  let prefixes = Array.map family_prefixes vars in
  (* Register → positions in [user_vars] of the variables it carries (a
     register can match more than one family by prefix). *)
  let families_of r =
    let acc = ref [] in
    for k = nv - 1 downto 0 do
      if in_family prefixes.(k) r then acc := k :: !acc
    done;
    !acc
  in
  let blocks = index.Func_index.blocks and preds = index.preds and succs = index.succs in
  let nb = Array.length blocks in
  (* Block transfer: the last family def in the block wins; [gen] holds it
     per variable ([Nothing] = the block defines none). *)
  let fams : int list Ir.Names.t = Ir.Names.create 64 in
  let gen =
    Array.map
      (fun (b : Ir.block) ->
        let g = Array.make nv Nothing in
        let scan (i : Ir.instr) =
          match i.result with
          | Some r -> (
              match families_of r with
              | [] -> ()
              | ks ->
                  Ir.Names.replace fams r ks;
                  List.iter (fun k -> g.(k) <- Unique r) ks)
          | None -> ()
        in
        List.iter scan b.phis;
        List.iter scan b.body;
        g)
      blocks
  in
  (* The function starts with no definition: the entry block and blocks
     without predecessors start from [Nothing], every other block from
     [Unvisited]. *)
  let seed = Array.init nb (fun b -> if b = 0 || preds.(b) = [] then Nothing else Unvisited) in
  let inn = Array.map (fun s -> Array.make nv s) seed in
  let out p k = match gen.(p).(k) with Nothing -> inn.(p).(k) | g -> g in
  let queued = Array.make nb true in
  let work = Queue.create () in
  for b = 0 to nb - 1 do
    Queue.add b work
  done;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    queued.(b) <- false;
    let changed = ref false in
    for k = 0 to nv - 1 do
      let v = List.fold_left (fun acc p -> join acc (out p k)) seed.(b) preds.(b) in
      if v <> inn.(b).(k) then begin
        inn.(b).(k) <- v;
        changed := true
      end
    done;
    if !changed then
      List.iter
        (fun s ->
          if s < nb && not queued.(s) then begin
            queued.(s) <- true;
            Queue.add s work
          end)
        succs.(b)
  done;
  (* One forward walk per block: the tracked list changes only at family
     defs, so consecutive points share one list. *)
  let at = Array.make (Array.length index.point_block) [] in
  Array.iteri
    (fun b (blk : Ir.block) ->
      let cur = Array.copy inn.(b) in
      let listing () =
        let acc = ref [] in
        for k = nv - 1 downto 0 do
          match cur.(k) with Unique r -> acc := (vars.(k), r) :: !acc | _ -> ()
        done;
        !acc
      in
      let now = ref (listing ()) in
      let record id = at.(id) <- !now in
      let step (i : Ir.instr) =
        record i.id;
        match i.result with
        | Some r when Ir.Names.mem fams r ->
            List.iter (fun k -> cur.(k) <- Unique r) (Ir.Names.find fams r);
            now := listing ()
        | _ -> ()
      in
      List.iter step blk.phis;
      List.iter step blk.body;
      record blk.term_id)
    blocks;
  { at }

(** All user variables tracked at [point] with their carrying values, in
    [user_vars] order; [[]] at a point the function does not have. *)
let tracked_at (t : t) ~(point : int) : (string * Ir.reg) list =
  if point >= 0 && point < Array.length t.at then t.at.(point) else []
