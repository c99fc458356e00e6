(** Block-level dominance for MiniIR: the Cooper–Harvey–Kennedy "simple,
    fast dominance" algorithm, plus dominance frontiers (needed by mem2reg's
    φ-placement) and instruction-level dominance queries (needed by the SSA
    verifier and by the OSR availability analysis). *)

type t = {
  func : Ir.func;
  order : string array;  (** reverse postorder, entry first *)
  index : (string, int) Hashtbl.t;  (** label → rpo index *)
  idom : int array;  (** rpo index → rpo index of immediate dominator; entry maps to itself *)
  preds : (string, string list) Hashtbl.t;
  tin : int array;
  tout : int array;
      (** Euler-tour interval of each node in the dominator tree:
          [a] dominates [b] iff [tin.(a) <= tin.(b) && tout.(b) <= tout.(a)],
          making every dominance test O(1) instead of an idom-chain walk. *)
}

let compute ?(index : Func_index.t option) (f : Ir.func) : t =
  (* The traversal needs only label → block and the predecessor lists;
     without an index, build just those two tables instead of a full
     [Func_index].  Predecessor order does not matter: it changes neither
     the idom fixpoint nor the frontiers. *)
  let find_block, preds =
    match index with
    | Some i -> (Func_index.find_block i, i.Func_index.preds)
    | None ->
        let n = List.length f.blocks in
        let blocks = Hashtbl.create n and preds = Hashtbl.create n in
        List.iter
          (fun (b : Ir.block) ->
            Hashtbl.replace blocks b.label b;
            Hashtbl.replace preds b.label [])
          f.blocks;
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun s ->
                match Hashtbl.find_opt preds s with
                | Some ps -> Hashtbl.replace preds s (b.label :: ps)
                | None -> ())
              (Ir.successors b))
          f.blocks;
        (Hashtbl.find_opt blocks, preds)
  in
  (* Reverse postorder from the entry. *)
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.add visited label ();
      (match find_block label with
      | Some b -> List.iter dfs (Ir.successors b)
      | None -> ());
      post := label :: !post
    end
  in
  dfs (Ir.entry f).label;
  let order = Array.of_list !post in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  let n = Array.length order in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect i j =
    let i = ref i and j = ref j in
    while !i <> !j do
      while !i > !j do
        i := idom.(!i)
      done;
      while !j > !i do
        j := idom.(!j)
      done
    done;
    !i
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let label = order.(i) in
      let ps =
        List.filter_map (fun p -> Hashtbl.find_opt index p)
          (Option.value ~default:[] (Hashtbl.find_opt preds label))
      in
      let processed = List.filter (fun p -> idom.(p) >= 0) ps in
      match processed with
      | [] -> ()
      | first :: rest ->
          let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
          if idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
    done
  done;
  (* Euler tour of the dominator tree (children from the idom array). *)
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    if idom.(i) >= 0 then children.(idom.(i)) <- i :: children.(idom.(i))
  done;
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let rec tour i =
    tin.(i) <- !clock;
    incr clock;
    List.iter tour children.(i);
    tout.(i) <- !clock;
    incr clock
  in
  if n > 0 then tour 0;
  { func = f; order; index; idom; preds; tin; tout }

(** Is [label] reachable from the entry? *)
let reachable (t : t) (label : string) : bool = Hashtbl.mem t.index label

(** Immediate dominator label; [None] for the entry or unreachable blocks. *)
let idom_of (t : t) (label : string) : string option =
  match Hashtbl.find_opt t.index label with
  | None -> None
  | Some 0 -> None
  | Some i -> if t.idom.(i) >= 0 then Some t.order.(t.idom.(i)) else None

(** Does block [a] dominate block [b]?  Unreachable blocks dominate nothing
    and are dominated by everything (vacuous). *)
let dominates_block (t : t) ~(a : string) ~(b : string) : bool =
  match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
  | Some ia, Some ib -> t.tin.(ia) <= t.tin.(ib) && t.tout.(ib) <= t.tout.(ia)
  | None, _ -> false
  | _, None -> true

let strictly_dominates_block (t : t) ~(a : string) ~(b : string) : bool =
  (not (String.equal a b)) && dominates_block t ~a ~b

(** Dominance frontier per block label. *)
let frontiers (t : t) : (string, string list) Hashtbl.t =
  let df = Hashtbl.create 16 in
  Array.iter (fun l -> Hashtbl.replace df l []) t.order;
  Array.iter
    (fun label ->
      let ps =
        List.filter (reachable t) (Option.value ~default:[] (Hashtbl.find_opt t.preds label))
      in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            let idom_label = idom_of t label in
            let rec runner r =
              if Some r <> idom_label then begin
                let cur = Option.value ~default:[] (Hashtbl.find_opt df r) in
                if not (List.mem label cur) then Hashtbl.replace df r (label :: cur);
                match idom_of t r with Some up -> runner up | None -> ()
              end
            in
            runner p)
          ps)
    t.order;
  df

(* ------------------------------------------------------------------ *)
(* Instruction-level dominance                                          *)
(* ------------------------------------------------------------------ *)

(* Position of each instruction id inside its block: (block, index), where
   φ-nodes share index 0 and the terminator sits after the body. *)
let instr_positions (f : Ir.func) : (int, string * int) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (i : Ir.instr) -> Hashtbl.replace t i.id (b.label, 0)) b.phis;
      List.iteri (fun k (i : Ir.instr) -> Hashtbl.replace t i.id (b.label, k + 1)) b.body;
      Hashtbl.replace t b.term_id (b.label, List.length b.body + 1))
    f.blocks;
  t

(** Does the definition at instruction [def_id] dominate the program point
    just before instruction [use_id]?  φ-nodes are treated as defining at
    the very top of their block (they dominate every body instruction of the
    block); an instruction does not dominate itself. *)
let instr_dominates (t : t) (positions : (int, string * int) Hashtbl.t) ~(def_id : int)
    ~(use_id : int) : bool =
  match (Hashtbl.find_opt positions def_id, Hashtbl.find_opt positions use_id) with
  | Some (db, di), Some (ub, ui) ->
      if String.equal db ub then di < ui
      else strictly_dominates_block t ~a:db ~b:ub
  | _, _ -> false
