(** Memory stores (Definition 2.2): total functions [Var -> Z ∪ {⊥}],
    represented as finite maps where absence means ⊥. *)

module VarMap = Map.Make (String)

type t = int VarMap.t

let empty : t = VarMap.empty

(** [get sigma x] is [sigma(x)], with [None] standing for ⊥. *)
let get (sigma : t) (x : Ast.var) : int option = VarMap.find_opt x sigma

(** [set sigma x v] is [sigma\[x <- v\]]. *)
let set (sigma : t) (x : Ast.var) (v : int) : t = VarMap.add x v sigma

(** [undefine sigma x] maps [x] back to ⊥. *)
let undefine (sigma : t) (x : Ast.var) : t = VarMap.remove x sigma

let is_defined (sigma : t) (x : Ast.var) = VarMap.mem x sigma

(** [restrict sigma vars] is [sigma|_A]: keeps the variables in [vars],
    sends every other variable to ⊥ (Definition 2.2). *)
let restrict (sigma : t) (vars : Ast.var list) : t =
  let keep = List.fold_left (fun acc x -> VarMap.add x () acc) VarMap.empty vars in
  VarMap.filter (fun x _ -> VarMap.mem x keep) sigma

let of_list (bindings : (Ast.var * int) list) : t =
  List.fold_left (fun acc (x, v) -> VarMap.add x v acc) VarMap.empty bindings

let to_list (sigma : t) : (Ast.var * int) list = VarMap.bindings sigma

let equal (a : t) (b : t) = VarMap.equal Int.equal a b

(** [agree_on vars a b] holds iff [a|_vars = b|_vars] — the weak store
    equality used throughout Sections 3 and 4. *)
let agree_on (vars : Ast.var list) (a : t) (b : t) =
  List.for_all (fun x -> get a x = get b x) vars

let pp ppf (sigma : t) =
  let pp_binding ppf (x, v) = Fmt.pf ppf "%s=%d" x v in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_binding) (to_list sigma)

let to_string sigma = Fmt.str "%a" pp sigma
