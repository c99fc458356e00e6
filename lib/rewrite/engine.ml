(** The transformation engine (Definition 2.9): applies a rewrite rule [T]
    to a concrete program by searching for a substitution θ that (i) matches
    every entry's left-hand-side pattern at a distinct program point and
    (ii) satisfies the rule's side condition, then replacing each matched
    instruction [I_θ(mk)] with [θ(Îk')]. *)

(** One way to apply a rule: the full substitution and the per-point
    replacement list. *)
type application = {
  subst : Ctl.Patterns.subst;
  rewrites : (int * Minilang.Ast.instr) list;  (** point ↦ new instruction *)
}

let points_of (app : application) = List.map fst app.rewrites

(* Enumerate, for one entry, every (point, subst) pair where the lhs
   matches under the current substitution. *)
let entry_matches (p : Minilang.Ast.program) (s : Ctl.Patterns.subst) (e : Rule.entry) :
    (int * Ctl.Patterns.subst) list =
  let n = Minilang.Ast.length p in
  let acc = ref [] in
  for l = n downto 1 do
    (* Respect a point meta already bound (rules sharing point metas). *)
    let point_ok =
      match Ctl.Patterns.lookup s e.point_meta with
      | Some (Bpoint l') -> l = l'
      | Some _ -> false
      | None -> true
    in
    if point_ok then
      let substs = Ctl.Patterns.match_instr s e.lhs (Minilang.Ast.instr_at p l) in
      List.iter
        (fun s' ->
          match Ctl.Patterns.bind s' e.point_meta (Bpoint l) with
          | Some s'' -> acc := (l, s'') :: !acc
          | None -> ())
        substs
  done;
  !acc

(* Check the side condition, extending the substitution over any metas that
   only occur there (e.g. the constant [c] of constant propagation). *)
let solve_side (env : Ctl.Checker.env) (s : Ctl.Patterns.subst) (side : Rule.located_condition list)
    : Ctl.Patterns.subst list =
  List.fold_left
    (fun substs cond ->
      List.concat_map
        (fun s ->
          match (cond : Rule.located_condition) with
          | At (m, f) -> (
              match Ctl.Patterns.lookup s m with
              | Some (Bpoint l) -> Ctl.Checker.solve env s f l
              | Some _ | None -> [])
          | Global f -> Ctl.Checker.solve env s f 1)
        substs)
    [ s ] side

(** All ways [rule] applies to [p], in deterministic order (ascending entry
    points).  Entries must match at pairwise-distinct points. *)
let applications (rule : Rule.t) (p : Minilang.Ast.program) : application list =
  let env = Ctl.Checker.make_env p in
  let rec assign_entries s bound_points = function
    | [] -> [ (s, List.rev bound_points) ]
    | e :: rest ->
        entry_matches p s e
        |> List.concat_map (fun (l, s') ->
               if List.mem l bound_points then []
               else assign_entries s' (l :: bound_points) rest)
  in
  assign_entries Ctl.Patterns.empty_subst [] rule.entries
  |> List.concat_map (fun (s, points) ->
         solve_side env s rule.side
         |> List.filter_map (fun s' ->
                try
                  let rewrites =
                    List.map2
                      (fun (e : Rule.entry) l -> (l, Ctl.Patterns.inst_instr s' e.rhs))
                      rule.entries points
                  in
                  Some { subst = s'; rewrites }
                with Ctl.Patterns.Unresolved _ -> None))
  |> List.sort_uniq (fun a b -> compare a.rewrites b.rewrites)

(** Apply a single application to [p], producing [p'].  Points are stable
    (in-place rewriting), so the Δ point mapping is the identity. *)
let apply_application (p : Minilang.Ast.program) (app : application) : Minilang.Ast.program =
  let p' = Array.copy p in
  List.iter (fun (l, i) -> p'.(l - 1) <- i) app.rewrites;
  p'

(** [⌈T⌉(p)]: the transformation function of Definition 2.9.  Returns
    [None] when no substitution satisfies the rule (so [⌈T⌉] is partial;
    the paper's function is only specified on programs where θ exists). *)
let apply_first (rule : Rule.t) (p : Minilang.Ast.program) : Minilang.Ast.program option =
  match applications rule p with [] -> None | app :: _ -> Some (apply_application p app)

(** Apply [rule] repeatedly (each time the first remaining application)
    until it no longer applies or [max_steps] is reached.  Skips
    applications that do not change the program, to guarantee progress. *)
let apply_fixpoint ?(max_steps = 1000) (rule : Rule.t) (p : Minilang.Ast.program) :
    Minilang.Ast.program =
  let rec go p steps =
    if steps = 0 then p
    else
      let apps = applications rule p in
      match
        List.find_opt
          (fun app -> not (Minilang.Ast.equal_program (apply_application p app) p))
          apps
      with
      | None -> p
      | Some app -> go (apply_application p app) (steps - 1)
  in
  go p max_steps
