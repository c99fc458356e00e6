(** Source-variable tracking as it was before its one-pass rewrite: a
    round-robin fixpoint over (block, user variable) that rescans
    predecessors and family lists, and a [value_at] that rescans the blocks
    from the top for every (point, variable).  The code below is a
    verbatim copy of [Debuginfo.Source_vars], with one edit, the join fix
    made in the library too: the lattice has an [Unvisited] bottom apart
    from [Nothing] (no definition), [Nothing ⊔ Unique r] is [Conflict],
    the state defaults to [Unvisited], and the fold over predecessors
    starts from [Nothing] at the entry block and from [Unvisited]
    elsewhere (a block without predecessors still gets [Nothing]).
    [Suite_debuginfo] compares [tracked_at] of both versions at every
    program point, and {!Ref_sweep}'s [Endangered] reads this copy, so
    [Suite_sweep]'s [analyze_function] comparison gates the rewrite too. *)

module Ir = Miniir.Ir

type t = {
  fbase : Ir.func;
  user_vars : string list;
  families : (string, Ir.reg list) Hashtbl.t;  (** user var → family regs *)
  reach_in : (string, (string, Ir.reg option) Hashtbl.t) Hashtbl.t;
      (** block label → (user var → unique reaching family def, if any) *)
}

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let family_of (fbase : Ir.func) (u : string) : Ir.reg list =
  List.filter_map
    (fun (i : Ir.instr) ->
      match i.result with
      | Some r
        when starts_with ~prefix:(u ^ ".def.") r || starts_with ~prefix:(u ^ ".slot.phi.") r ->
          Some r
      | _ -> None)
    (Ir.all_instrs fbase)

(* Per-variable reaching analysis with a three-point lattice:
   None = no definition yet, Some (Some r) = unique def r, Some None =
   conflicting defs. *)
type reach = Unvisited | Nothing | Unique of Ir.reg | Conflict

let join a b =
  match (a, b) with
  | Unvisited, x | x, Unvisited -> x
  | Nothing, Nothing -> Nothing
  | Unique r1, Unique r2 when String.equal r1 r2 -> a
  | _ -> Conflict

let analyze (fbase : Ir.func) ~(user_vars : string list) : t =
  let families = Hashtbl.create 16 in
  List.iter (fun u -> Hashtbl.replace families u (family_of fbase u)) user_vars;
  let is_family u r = List.mem r (Hashtbl.find families u) in
  (* Block transfer: last family def in the block wins. *)
  let block_out (b : Ir.block) (u : string) (incoming : reach) : reach =
    List.fold_left
      (fun acc (i : Ir.instr) ->
        match i.result with Some r when is_family u r -> Unique r | _ -> acc)
      incoming (Ir.block_instrs b)
  in
  let state : (string * string, reach) Hashtbl.t = Hashtbl.create 64 in
  let get label u = Option.value ~default:Unvisited (Hashtbl.find_opt state (label, u)) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun u ->
            let inn =
              match Ir.predecessors fbase b.label with
              | [] -> Nothing
              | preds ->
                  List.fold_left
                    (fun acc p ->
                      join acc (block_out (Ir.block_exn fbase p) u (get p u)))
                    (if String.equal b.label (Ir.entry fbase).label then Nothing else Unvisited)
                    preds
            in
            if inn <> get b.label u then begin
              Hashtbl.replace state (b.label, u) inn;
              changed := true
            end)
          user_vars)
      fbase.Ir.blocks
  done;
  let reach_in = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun u ->
          match get b.label u with
          | Unique r -> Hashtbl.replace tbl u (Some r)
          | Unvisited | Nothing | Conflict -> Hashtbl.replace tbl u None)
        user_vars;
      Hashtbl.replace reach_in b.label tbl)
    fbase.Ir.blocks;
  { fbase; user_vars; families; reach_in }

(** The IR value carrying user variable [u] just before instruction id
    [point] in [fbase]; [None] when untracked there. *)
let value_at (t : t) (u : string) ~(point : int) : Ir.reg option =
  let is_family r = List.mem r (Hashtbl.find t.families u) in
  let scan_block (b : Ir.block) (current : Ir.reg option) =
    let instrs = Ir.block_instrs b in
    let rec go current = function
      | [] -> if point = b.term_id then Some current else None
      | (i : Ir.instr) :: rest ->
          if i.id = point then Some current
          else
            let current =
              match i.result with Some r when is_family r -> Some r | _ -> current
            in
            go current rest
    in
    go current instrs
  in
  let rec find = function
    | [] -> None
    | (b : Ir.block) :: rest -> (
        let incoming =
          match Hashtbl.find_opt t.reach_in b.label with
          | Some tbl -> Option.join (Hashtbl.find_opt tbl u)
          | None -> None
        in
        match scan_block b incoming with Some v -> v | None -> find rest)
  in
  find t.fbase.Ir.blocks

(** All user variables tracked at [point] with their carrying values. *)
let tracked_at (t : t) ~(point : int) : (string * Ir.reg) list =
  List.filter_map
    (fun u -> Option.map (fun r -> (u, r)) (value_at t u ~point))
    t.user_vars
