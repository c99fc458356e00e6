(** Live-variable analysis (Definition 2.7).  [live g l] is the paper's
    [live(p, l)]: the variables live {e at} point [l], i.e., on entry to
    instruction [I_l]. *)

module Problem = struct
  type fact = Minilang.Ast.var

  let compare_fact = String.compare
  let direction = `Backward
  let meet = `Union

  (* live_in(l) = use(l) ∪ (live_out(l) \ def(l)) *)
  let transfer p l out =
    let i = Minilang.Ast.instr_at p l in
    let defs = Minilang.Ast.defs_of_instr i in
    let uses = Minilang.Ast.uses_of_instr i in
    uses @ List.filter (fun x -> not (List.mem x defs)) out

  (* Nothing is live after [out] (it already restricted the store) or after
     [abort]. *)
  let boundary _ = []
  let universe p = Minilang.Ast.all_vars p
end

module Solver = Dataflow.Solve (Problem)

type t = { result : Solver.result }

let analyze (g : Cfg.t) : t = { result = Solver.run g }

(** Variables live at point [l] (before [I_l] executes). *)
let live_at (t : t) (l : int) : Minilang.Ast.var list = t.result.before l

let is_live (t : t) (l : int) (x : Minilang.Ast.var) = List.mem x (live_at t l)

(** One-shot convenience: [live p l]. *)
let live (p : Minilang.Ast.program) (l : int) : Minilang.Ast.var list =
  live_at (analyze (Cfg.build p)) l
