(** Rewrite rules with CTL side conditions (Definition 2.8):

    {v T = m1 : Î1 ⇒ Î1' ⋯ mr : Îr ⇒ Îr'  if φ v}

    Each entry names a program-point meta-variable [mk] and rewrites the
    instruction matched at that point {e in place}; program points therefore
    never move, which is exactly the identity-Δ hypothesis of Theorem 4.6.

    The side condition is a conjunction of located formulas ([m ⊨ φ], with
    [m] one of the rule's point metas) and global formulas (e.g.
    [conlit(c)]), matching how Figure 5 writes its conditions. *)

type entry = {
  point_meta : string;  (** the [mk] meta-variable naming the point *)
  lhs : Ctl.Patterns.instr_pat;
  rhs : Ctl.Patterns.instr_pat;
}

type located_condition =
  | At of string * Ctl.Formula.t  (** [m ⊨ φ] *)
  | Global of Ctl.Formula.t  (** point-independent (global predicates only) *)

type t = {
  name : string;
  entries : entry list;
  side : located_condition list;  (** conjunction *)
}

let make ~name ~entries ~side = { name; entries; side }
