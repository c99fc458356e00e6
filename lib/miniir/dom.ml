(** Block-level dominance for MiniIR: the Cooper–Harvey–Kennedy "simple,
    fast dominance" algorithm over the block graph of a {!Func_index}, plus
    dominance frontiers (needed by mem2reg's φ-placement) and
    instruction-level dominance over the index's points (needed by the OSR
    availability analysis).  Every array is over the index's node numbers
    or over reverse-postorder indices; the label queries resolve a label
    through the index. *)

type t = {
  index : Func_index.t;  (** the numbering the tree is built over *)
  rpo : int array;  (** node → rpo index; [-1] when unreachable from the entry *)
  order : int array;  (** reverse postorder: rpo index → node, entry first *)
  idom : int array;  (** rpo index → rpo index of immediate dominator; entry maps to itself *)
  tin : int array;
  tout : int array;
      (** Euler-tour interval of each rpo index in the dominator tree:
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
    the fixpoint does not depend on it.  {!compute} calls it on a
    {!Func_index}'s block graph, the verifier on its own per-call
    numbering. *)
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

(** The dominator tree of [index]'s block graph, entry = block 0. *)
let compute (index : Func_index.t) : t =
  let g = numbered ~succs:index.succs ~preds:index.preds in
  { index; rpo = g.rpo; order = g.rpo_order; idom = g.rpo_idom; tin = g.rpo_tin; tout = g.rpo_tout }

(* Rpo index of [label]'s node; [-1] when unreachable or unknown. *)
let rpo_of (t : t) (label : string) : int =
  match Ir.Names.find_opt t.index.numbers label with Some v -> t.rpo.(v) | None -> -1

(* Does rpo index [a] dominate rpo index [b]?  Unreachable ([-1]) nodes
   dominate nothing and are dominated by everything (vacuous). *)
let dominates_rpo (t : t) (a : int) (b : int) : bool =
  a >= 0 && (b < 0 || (t.tin.(a) <= t.tin.(b) && t.tout.(b) <= t.tout.(a)))

(** Is [label] reachable from the entry? *)
let reachable (t : t) (label : string) : bool = rpo_of t label >= 0

(* Rpo index of the immediate dominator; [-1] for the entry or
   unreachable nodes. *)
let idom_rpo (t : t) (i : int) : int = if i <= 0 then -1 else t.idom.(i)

(** Immediate dominator label; [None] for the entry or unreachable blocks. *)
let idom_of (t : t) (label : string) : string option =
  let d = idom_rpo t (rpo_of t label) in
  if d < 0 then None else Some t.index.labels.(t.order.(d))

(** Does block [a] dominate block [b]?  Unreachable blocks dominate nothing
    and are dominated by everything (vacuous). *)
let dominates_block (t : t) ~(a : string) ~(b : string) : bool =
  dominates_rpo t (rpo_of t a) (rpo_of t b)

let strictly_dominates_block (t : t) ~(a : string) ~(b : string) : bool =
  (not (String.equal a b)) && dominates_block t ~a ~b

(** Does node [a] dominate node [b]?  {!dominates_block} by number. *)
let dominates (t : t) (a : int) (b : int) : bool = dominates_rpo t t.rpo.(a) t.rpo.(b)

(** Dominance frontier of every node; each list is in reverse postorder
    (mem2reg places φs in this order). *)
let frontiers (t : t) : int list array =
  let df = Array.make (Array.length t.index.labels) [] in
  Array.iteri
    (fun i v ->
      let ps = List.filter (fun p -> t.rpo.(p) >= 0) t.index.preds.(v) in
      if List.compare_length_with ps 2 >= 0 then begin
        let stop = idom_rpo t i in
        List.iter
          (fun p ->
            let rec runner r =
              if r <> stop then begin
                let w = t.order.(r) in
                if not (List.mem v df.(w)) then df.(w) <- v :: df.(w);
                let up = idom_rpo t r in
                if up >= 0 then runner up
              end
            in
            runner t.rpo.(p))
          ps
      end)
    t.order;
  df

(* ------------------------------------------------------------------ *)
(* Instruction-level dominance                                          *)
(* ------------------------------------------------------------------ *)

(** Does the definition at instruction [def_id] dominate the program point
    just before instruction [use_id]?  φ-nodes are treated as defining at
    the very top of their block (they dominate every body instruction of the
    block); an instruction does not dominate itself. *)
let instr_dominates (t : t) ~(def_id : int) ~(use_id : int) : bool =
  let ix = t.index in
  Func_index.is_point ix def_id && Func_index.is_point ix use_id
  &&
  let db = ix.point_block.(def_id) and ub = ix.point_block.(use_id) in
  if db = ub then ix.point_pos.(def_id) < ix.point_pos.(use_id)
  else dominates_rpo t t.rpo.(db) t.rpo.(ub)
