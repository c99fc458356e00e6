(** Control-flow graph over programs of the paper's language.  Nodes are the
    program points [1..n]; edges follow the transition relation of Figure 2.

    The [out] instruction at point [n] has no successors inside the graph (it
    transitions to the virtual exit [n+1]); [abort] has none either. *)

type t = {
  program : Minilang.Ast.program;
  succs : int list array;  (** index [l-1] holds successors of point [l] *)
  preds : int list array;
}

let n_points (g : t) = Array.length g.succs

(** Successor points of instruction [I_l] per the semantics:
    - [assign]/[skip]/[in]: fall through to [l+1]
    - [goto m]: [m]
    - [if (e) goto m]: [l+1] and [m] (deduplicated when [m = l+1])
    - [out]/[abort]: none *)
let instr_succs (p : Minilang.Ast.program) (l : int) : int list =
  match Minilang.Ast.instr_at p l with
  | Assign _ | Skip | In _ -> [ l + 1 ]
  | Goto m -> [ m ]
  | If (_, m) -> if m = l + 1 then [ m ] else [ l + 1; m ]
  | Out _ | Abort -> []

let build (p : Minilang.Ast.program) : t =
  let n = Minilang.Ast.length p in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  for l = 1 to n do
    let ss = instr_succs p l in
    succs.(l - 1) <- ss;
    List.iter
      (fun m -> if m >= 1 && m <= n then preds.(m - 1) <- l :: preds.(m - 1))
      ss
  done;
  for i = 0 to n - 1 do
    preds.(i) <- List.sort_uniq compare preds.(i)
  done;
  { program = p; succs; preds }

let succs (g : t) (l : int) = g.succs.(l - 1)
let preds (g : t) (l : int) = g.preds.(l - 1)

(** Points reachable from the entry point 1 by following successor edges. *)
let reachable_from_entry (g : t) : bool array =
  let n = n_points g in
  let seen = Array.make n false in
  let rec dfs l =
    if not seen.(l - 1) then begin
      seen.(l - 1) <- true;
      List.iter dfs (succs g l)
    end
  in
  dfs 1;
  seen

(** Reverse-postorder over forward edges, entry first — a good iteration
    order for forward dataflow problems. *)
let reverse_postorder (g : t) : int list =
  let n = n_points g in
  let seen = Array.make n false in
  let order = ref [] in
  let rec dfs l =
    if not seen.(l - 1) then begin
      seen.(l - 1) <- true;
      List.iter dfs (succs g l);
      order := l :: !order
    end
  in
  dfs 1;
  (* Unreachable points still get a slot, after the reachable ones, so that
     analyses are total over [1..n]. *)
  let unreachable = ref [] in
  for l = n downto 1 do
    if not seen.(l - 1) then unreachable := l :: !unreachable
  done;
  !order @ !unreachable
