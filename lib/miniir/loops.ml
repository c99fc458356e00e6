(** Natural-loop detection for MiniIR, via back edges in the dominator
    tree.  Used by LoopCanon (preheader insertion), LICM (what to hoist and
    where) and LCSSA (which values escape a loop). *)

type loop = {
  header : string;
  body : string list;  (** all blocks of the loop, header included *)
  latches : string list;  (** sources of back edges into the header *)
}

type t = { loops : loop list; dom : Dom.t }

(** Detect all natural loops.  Back edge: [b → h] with [h] dominating [b].
    Loops sharing a header are merged.  [dom] is recomputed when not
    supplied (the analysis manager passes a cached one, and [index] to
    build it from); the loop bodies follow [dom]'s predecessor lists. *)
let compute ?(index : Func_index.t option) ?(dom : Dom.t option) (f : Ir.func) : t =
  let dom = match dom with Some d -> d | None -> Dom.compute ?index f in
  let back_edges =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun s ->
            if Dom.reachable dom b.label && Dom.dominates_block dom ~a:s ~b:b.label then
              Some (b.label, s)
            else None)
          (Ir.successors b))
      f.blocks
  in
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_header header) in
      Hashtbl.replace by_header header (latch :: existing))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        (* Loop body: header plus every block that reaches a latch without
           passing through the header (standard natural-loop construction:
           backward flood from the latches, stopping at the header). *)
        let body = Hashtbl.create 8 in
        Hashtbl.add body header ();
        let rec flood label =
          if not (Hashtbl.mem body label) then begin
            Hashtbl.add body label ();
            List.iter flood (Option.value ~default:[] (Hashtbl.find_opt dom.Dom.preds label))
          end
        in
        List.iter flood latches;
        {
          header;
          body = List.filter (Hashtbl.mem body) (List.map (fun (b : Ir.block) -> b.label) f.blocks);
          latches;
        }
        :: acc)
      by_header []
  in
  (* Sort outermost-first (larger bodies first) for LICM processing. *)
  let loops =
    List.sort (fun a b -> compare (List.length b.body) (List.length a.body)) loops
  in
  { loops; dom }

let in_loop (l : loop) (label : string) = List.mem label l.body

(* The queries below take an index of the function: they run once per
   loop in LCSSA, LICM and LoopCanon, where a linear block lookup would
   make each of those passes quadratic in the block count. *)

(** Blocks outside the loop that the loop branches to. *)
let exit_targets (index : Func_index.t) (l : loop) : string list =
  List.sort_uniq compare
    (List.concat_map
       (fun label ->
         List.filter (fun s -> not (in_loop l s)) (Func_index.successors index label))
       l.body)

(** Predecessors of the header from outside the loop (candidates to be
    replaced by a preheader). *)
let outside_preds (index : Func_index.t) (l : loop) : string list =
  List.filter (fun p -> not (in_loop l p)) (Func_index.predecessors index l.header)

(** The unique preheader, if the loop is in canonical form: exactly one
    outside predecessor whose only successor is the header. *)
let preheader (index : Func_index.t) (l : loop) : string option =
  match outside_preds index l with
  | [ p ] -> if Func_index.successors index p = [ l.header ] then Some p else None
  | _ -> None
