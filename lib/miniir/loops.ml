(** Natural-loop detection for MiniIR, via back edges in the dominator
    tree.  Used by LoopCanon (preheader insertion), LICM (what to hoist and
    where) and LCSSA (which values escape a loop). *)

type loop = {
  header : string;
  body : string list;  (** all blocks of the loop, header included *)
  latches : string list;  (** sources of back edges into the header *)
}

type t = { loops : loop list; dom : Dom.t }

(** Detect all natural loops of the function [dom] was built over.  Back
    edge: [b → h] with [h] dominating [b].  Loops sharing a header are
    merged; a loop body is the header plus every block that reaches a latch
    without passing through the header (a backward flood over the index's
    predecessors, stopping at the header).  Loops come outermost-first
    (larger bodies first), equal sizes in header block order. *)
let compute (dom : Dom.t) : t =
  let index = dom.index in
  let blocks = index.blocks in
  (* Latches by header block number (a header dominates its latches, so it
     is a block), each list in reverse back-edge order. *)
  let latches_of = Array.make (Array.length blocks) [] in
  Array.iteri
    (fun k (b : Ir.block) ->
      let rk = dom.rpo.(k) in
      if rk >= 0 then
        List.iter
          (fun s ->
            if Dom.dominates_rpo dom dom.rpo.(s) rk then begin
              let h = Func_index.block_number index index.labels.(s) in
              latches_of.(h) <- b.label :: latches_of.(h)
            end)
          index.succs.(k))
    blocks;
  let loop_at h latches =
    let body = Array.make (Array.length blocks) false in
    body.(h) <- true;
    let rec flood k =
      if not body.(k) then begin
        body.(k) <- true;
        List.iter flood index.preds.(k)
      end
    in
    List.iter (fun l -> flood (Func_index.block_number index l)) latches;
    {
      header = blocks.(h).label;
      body =
        List.rev
          (Array.fold_left
             (fun acc (b : Ir.block) ->
               if body.(Func_index.block_number index b.label) then b.label :: acc else acc)
             [] blocks);
      latches;
    }
  in
  let loops = ref [] in
  for h = Array.length blocks - 1 downto 0 do
    if latches_of.(h) <> [] then loops := loop_at h latches_of.(h) :: !loops
  done;
  let loops =
    List.stable_sort (fun a b -> compare (List.length b.body) (List.length a.body)) !loops
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
