(** Reaching-definitions analysis.  A definition is a pair [(x, l)]:
    variable [x] is defined by instruction [I_l] (an [Assign] or the [In]).

    This backs the paper's [ud(x, p̄, ld, lr)] predicate (Algorithm 1):
    "there exists in [p̄] a unique definition, located at [ld], for variable
    [x] that reaches location [lr]". *)

type def = Minilang.Ast.var * int

module Problem = struct
  type fact = def

  let compare_fact = compare
  let direction = `Forward
  let meet = `Union

  (* out(l) = gen(l) ∪ (in(l) \ kill(l)) where gen(l) = {(x,l) | I_l defines x}
     and kill(l) removes all other definitions of the same variables. *)
  let transfer p l incoming =
    let defs = Minilang.Ast.defs_of_instr (Minilang.Ast.instr_at p l) in
    let survives (x, _) = not (List.mem x defs) in
    List.map (fun x -> (x, l)) defs @ List.filter survives incoming

  let boundary _ = []

  let universe p =
    let n = Minilang.Ast.length p in
    let acc = ref [] in
    for l = 1 to n do
      List.iter
        (fun x -> acc := (x, l) :: !acc)
        (Minilang.Ast.defs_of_instr (Minilang.Ast.instr_at p l))
    done;
    !acc
end

module Solver = Dataflow.Solve (Problem)

type t = { result : Solver.result }

let analyze (g : Cfg.t) : t = { result = Solver.run g }

(** Definitions reaching point [l] (before [I_l] executes). *)
let reaching_at (t : t) (l : int) : def list = t.result.before l

(** Definition points of [x] reaching point [l]. *)
let defs_of (t : t) (l : int) (x : Minilang.Ast.var) : int list =
  List.filter_map (fun (y, ld) -> if String.equal x y then Some ld else None) (reaching_at t l)

(** The paper's [ud] predicate: [Some ld] iff exactly one definition of [x]
    (at point [ld]) reaches [lr]. *)
let unique_def (t : t) ~(x : Minilang.Ast.var) ~(lr : int) : int option =
  match defs_of t lr x with [ ld ] -> Some ld | [] | _ :: _ :: _ -> None
