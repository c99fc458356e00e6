(** Dominance over {!Cfg.t}: point [d] dominates point [l] if every path
    from the entry to [l] passes through [d].  Solved as an intersection
    dataflow problem — adequate at the scale of the paper's language programs
    (the SSA IR substrate has its own Cooper–Harvey–Kennedy implementation). *)

module Problem = struct
  type fact = int  (* a dominating program point *)

  let compare_fact = Int.compare
  let direction = `Forward
  let meet = `Intersection

  (* dom(l) = {l} ∪ ⋂_{p ∈ preds} dom(p) — the transfer adds the point
     itself on the way out. *)
  let transfer _ l incoming = l :: incoming
  let boundary _ = []

  let universe p =
    let n = Minilang.Ast.length p in
    List.init n (fun i -> i + 1)
end

module Solver = Dataflow.Solve (Problem)

type t = { result : Solver.result; n : int }

let analyze (g : Cfg.t) : t = { result = Solver.run g; n = Cfg.n_points g }

(** All dominators of [l], including [l] itself. *)
let dominators (t : t) (l : int) : int list = List.sort_uniq compare (l :: t.result.before l)

let dominates (t : t) ~(dom : int) ~(point : int) = List.mem dom (dominators t point)

(** Immediate dominator: the unique strict dominator dominated by every
    other strict dominator.  [None] for the entry and unreachable points. *)
let idom (t : t) (l : int) : int option =
  match List.filter (fun d -> d <> l) (dominators t l) with
  | [] -> None
  | strict ->
      List.find_opt
        (fun d -> List.for_all (fun d' -> d' = d || dominates t ~dom:d' ~point:d) strict)
        strict
