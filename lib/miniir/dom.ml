(** Block-level dominance for MiniIR: the Cooper–Harvey–Kennedy "simple,
    fast dominance" algorithm, plus dominance frontiers (needed by mem2reg's
    φ-placement) and instruction-level dominance queries (needed by the OSR
    availability analysis). *)

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

type numbered = {
  rpo : int array;  (** node → rpo index; [-1] when unreachable from node 0 *)
  rpo_order : int array;  (** rpo index → node *)
  rpo_idom : int array;  (** as [t.idom] *)
  rpo_tin : int array;  (** as [t.tin] *)
  rpo_tout : int array;  (** as [t.tout] *)
}

(** The dominator tree of a graph whose nodes are [0 .. n-1], node 0 the
    entry: reverse postorder by a depth-first search that visits [succs]
    in list order, the idom fixpoint, and the Euler tour of the tree.
    [preds.(v)] must hold every node with an edge to [v], in any order:
    the fixpoint does not depend on it.  {!compute} and the verifier both
    number their blocks and call this. *)
let numbered ~(succs : int list array) ~(preds : int list array) : numbered =
  let nodes = Array.length succs in
  let rpo = Array.make nodes (-1) in
  let post = ref [] and n = ref 0 in
  let rec dfs v =
    if rpo.(v) < 0 then begin
      (* Any mark will do while the search runs; [rpo] is renumbered
         below. *)
      rpo.(v) <- 0;
      List.iter dfs succs.(v);
      post := v :: !post;
      incr n
    end
  in
  if nodes > 0 then dfs 0;
  let n = !n in
  let order = Array.of_list !post in
  Array.iteri (fun i v -> rpo.(v) <- i) order;
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
      let new_idom =
        List.fold_left
          (fun acc p ->
            let rp = rpo.(p) in
            if rp < 0 || idom.(rp) < 0 then acc else if acc < 0 then rp else intersect acc rp)
          (-1) preds.(order.(i))
      in
      if new_idom >= 0 && idom.(i) <> new_idom then begin
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
  { rpo; rpo_order = order; rpo_idom = idom; rpo_tin = tin; rpo_tout = tout }

let compute ?(index : Func_index.t option) (f : Ir.func) : t =
  (* Number the labels: the entry's first, then every block label in block
     order, then branch targets that name no block.  A label names its last
     block, as a lookup by label finds it; a target naming no block is a
     node without successors or predecessors. *)
  let entry = (Ir.entry f).label in
  let num = Hashtbl.create 16 and names = ref [] and count = ref 0 in
  let number l =
    match Hashtbl.find_opt num l with
    | Some k -> k
    | None ->
        let k = !count in
        Hashtbl.add num l k;
        names := l :: !names;
        incr count;
        k
  in
  ignore (number entry : int);
  List.iter (fun (b : Ir.block) -> ignore (number b.label : int)) f.blocks;
  let n_labels = !count in
  List.iter (fun b -> List.iter (fun s -> ignore (number s : int)) (Ir.successors b)) f.blocks;
  let succs = Array.make !count [] and npreds = Array.make !count [] in
  List.iter
    (fun (b : Ir.block) ->
      let k = number b.label and ss = List.map number (Ir.successors b) in
      succs.(k) <- ss;
      List.iter (fun s -> if s < n_labels then npreds.(s) <- k :: npreds.(s)) ss)
    f.blocks;
  let names = Array.of_list (List.rev !names) in
  let preds =
    match index with
    | Some i -> i.Func_index.preds
    | None ->
        let preds = Hashtbl.create n_labels in
        for k = n_labels - 1 downto 0 do
          Hashtbl.replace preds names.(k) (List.map (fun p -> names.(p)) npreds.(k))
        done;
        preds
  in
  let g = numbered ~succs ~preds:npreds in
  let order = Array.map (fun v -> names.(v)) g.rpo_order in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  { func = f; order; index; idom = g.rpo_idom; preds; tin = g.rpo_tin; tout = g.rpo_tout }

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

(** Does the definition at instruction [def_id] dominate the program point
    just before instruction [use_id]?  φ-nodes are treated as defining at
    the very top of their block (they dominate every body instruction of the
    block); an instruction does not dominate itself.  [positions] is a
    {!Func_index.t}'s [positions] table. *)
let instr_dominates (t : t) (positions : (int, string * int) Hashtbl.t) ~(def_id : int)
    ~(use_id : int) : bool =
  match (Hashtbl.find_opt positions def_id, Hashtbl.find_opt positions use_id) with
  | Some (db, di), Some (ub, ui) ->
      if String.equal db ub then di < ui
      else strictly_dominates_block t ~a:db ~b:ub
  | _, _ -> false
