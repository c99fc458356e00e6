(** Per-instruction liveness for MiniIR.  [live_before] of an instruction id
    is the set of registers whose current values may still be read on some
    path from that point — the IR analogue of the paper's [live(p, l)]
    (definedness is structural in SSA: a value is defined iff its definition
    dominates the point, so no separate conjunct is needed).

    φ-node incomings are attributed to the tail of the corresponding
    predecessor, as usual.

    Registers are interned to dense integers and the sets are byte-array
    bitsets: the block fixpoint works on gen/kill summaries with
    byte-at-a-time unions instead of [Set.Make(String)] element-by-element
    unions (a word-wide union did not move [Osr_ctx.make_pair] beyond
    noise), which is what keeps the Figure 7/8 feasibility sweep (thousands of
    [live_at]/[is_live] queries per function version) cheap.  A result is
    never written after {!compute} returns, so one value can be queried
    from several domains at once.  The original string-set implementation
    lives on in the test suite, which checks the two agree on generated
    functions. *)

(* ------------------------------------------------------------------ *)
(* Bitsets over interned registers                                      *)
(* ------------------------------------------------------------------ *)

module Bits = struct
  type t = Bytes.t

  let create (nbits : int) : t = Bytes.make ((nbits + 7) lsr 3) '\000'
  let copy = Bytes.copy
  let equal = Bytes.equal

  let mem (b : t) (i : int) : bool =
    Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set (b : t) (i : int) : unit =
    Bytes.unsafe_set b (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

  let clear (b : t) (i : int) : unit =
    Bytes.unsafe_set b (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) land lnot (1 lsl (i land 7))))

  (** [union_into dst src]: dst ← dst ∪ src. *)
  let union_into (dst : t) (src : t) : unit =
    for k = 0 to Bytes.length dst - 1 do
      Bytes.unsafe_set dst k
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get dst k) lor Char.code (Bytes.unsafe_get src k)))
    done

  (** [diff_into dst src]: dst ← dst \ src. *)
  let diff_into (dst : t) (src : t) : unit =
    for k = 0 to Bytes.length dst - 1 do
      Bytes.unsafe_set dst k
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get dst k) land lnot (Char.code (Bytes.unsafe_get src k))))
    done

  let iter (fn : int -> unit) (b : t) : unit =
    for k = 0 to Bytes.length b - 1 do
      let byte = Char.code (Bytes.unsafe_get b k) in
      if byte <> 0 then
        for j = 0 to 7 do
          if byte land (1 lsl j) <> 0 then fn ((k lsl 3) lor j)
        done
    done
end

type t = {
  names : string array;  (** interned register id → name *)
  ids : (string, int) Hashtbl.t;  (** name → interned id *)
  live_before : (int, Bits.t) Hashtbl.t;  (** instruction/terminator id → set *)
  live_out : (string, Bits.t) Hashtbl.t;  (** block label → live-out *)
}

let compute ?(index : Func_index.t option) (f : Ir.func) : t =
  let index = match index with Some i -> i | None -> Func_index.make f in
  (* --- Intern every register appearing in the function. --- *)
  let ids = Hashtbl.create 64 in
  let rev = ref [] in
  let n = ref 0 in
  let intern r =
    match Hashtbl.find_opt ids r with
    | Some i -> i
    | None ->
        let i = !n in
        Hashtbl.add ids r i;
        rev := r :: !rev;
        incr n;
        i
  in
  List.iter (fun p -> ignore (intern p : int)) f.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          (match i.result with Some r -> ignore (intern r : int) | None -> ());
          List.iter (fun r -> ignore (intern r : int)) (Ir.rhs_uses i.rhs))
        (Ir.block_instrs b);
      List.iter (fun r -> ignore (intern r : int)) (Ir.term_uses b.term))
    f.blocks;
  let nbits = !n in
  let names = Array.make (max 1 nbits) "" in
  List.iteri (fun k r -> names.(nbits - 1 - k) <- r) !rev;
  (* --- Per-block summaries: gen/kill over body+terminator, φ defs, and
     φ uses attributed to each predecessor edge. --- *)
  let gen = Hashtbl.create 16 in  (* upward-exposed uses of body+term *)
  let kill = Hashtbl.create 16 in  (* body defs *)
  let phi_defs = Hashtbl.create 16 in
  let phi_in = Hashtbl.create 16 in  (* label → (pred → bitset of φ incomings) *)
  List.iter
    (fun (b : Ir.block) ->
      let g = Bits.create nbits and k = Bits.create nbits in
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun r ->
              let ri = Hashtbl.find ids r in
              if not (Bits.mem k ri) then Bits.set g ri)
            (Ir.rhs_uses i.rhs);
          match i.result with Some r -> Bits.set k (Hashtbl.find ids r) | None -> ())
        b.body;
      List.iter
        (fun r ->
          let ri = Hashtbl.find ids r in
          if not (Bits.mem k ri) then Bits.set g ri)
        (Ir.term_uses b.term);
      Hashtbl.replace gen b.label g;
      Hashtbl.replace kill b.label k;
      let pd = Bits.create nbits in
      let edge_uses : (string, Bits.t) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun (i : Ir.instr) ->
          (match i.result with Some r -> Bits.set pd (Hashtbl.find ids r) | None -> ());
          match i.rhs with
          | Ir.Phi incoming ->
              List.iter
                (fun (l, v) ->
                  match v with
                  | Ir.Reg r ->
                      let bs =
                        match Hashtbl.find_opt edge_uses l with
                        | Some bs -> bs
                        | None ->
                            let bs = Bits.create nbits in
                            Hashtbl.add edge_uses l bs;
                            bs
                      in
                      Bits.set bs (Hashtbl.find ids r)
                  | Ir.Const _ | Ir.Undef -> ())
                incoming
          | _ -> ())
        b.phis;
      Hashtbl.replace phi_defs b.label pd;
      Hashtbl.replace phi_in b.label edge_uses)
    f.blocks;
  (* --- Block-level fixpoint on bitsets. --- *)
  let live_in = Hashtbl.create 16 in
  let live_out = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace live_in b.label (Bits.create nbits);
      Hashtbl.replace live_out b.label (Bits.create nbits))
    f.blocks;
  let rev_blocks = List.rev f.blocks in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        let out = Bits.create nbits in
        List.iter
          (fun s ->
            match Hashtbl.find_opt live_in s with
            | Some inn ->
                Bits.union_into out inn;
                (match Hashtbl.find_opt (Hashtbl.find phi_in s) b.label with
                | Some bs -> Bits.union_into out bs
                | None -> ())
            | None -> ())
          (Func_index.successors index b.label);
        (* in = (gen ∪ (out \ kill)) \ phi_defs *)
        let inn = Bits.copy out in
        Bits.diff_into inn (Hashtbl.find kill b.label);
        Bits.union_into inn (Hashtbl.find gen b.label);
        Bits.diff_into inn (Hashtbl.find phi_defs b.label);
        if not (Bits.equal out (Hashtbl.find live_out b.label)) then begin
          Hashtbl.replace live_out b.label out;
          changed := true
        end;
        if not (Bits.equal inn (Hashtbl.find live_in b.label)) then begin
          Hashtbl.replace live_in b.label inn;
          changed := true
        end)
      rev_blocks
  done;
  (* --- Final per-instruction backward pass. --- *)
  let live_before = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      let live = Bits.copy (Hashtbl.find live_out b.label) in
      List.iter (fun r -> Bits.set live (Hashtbl.find ids r)) (Ir.term_uses b.term);
      Hashtbl.replace live_before b.term_id (Bits.copy live);
      List.iter
        (fun (i : Ir.instr) ->
          (match i.result with Some r -> Bits.clear live (Hashtbl.find ids r) | None -> ());
          List.iter (fun r -> Bits.set live (Hashtbl.find ids r)) (Ir.rhs_uses i.rhs);
          Hashtbl.replace live_before i.id (Bits.copy live))
        (List.rev b.body);
      (* φ-nodes all share the block-top point: live there is live at body
         start minus nothing (their defs are at this very point). *)
      List.iter (fun (i : Ir.instr) -> Hashtbl.replace live_before i.id live) b.phis)
    f.blocks;
  { names; ids; live_before; live_out }

let to_sorted_names (t : t) (bs : Bits.t) : string list =
  let acc = ref [] in
  Bits.iter (fun i -> acc := t.names.(i) :: !acc) bs;
  List.sort String.compare !acc

(** Registers live just before instruction [id] executes (sorted). *)
let live_at (t : t) (id : int) : string list =
  match Hashtbl.find_opt t.live_before id with
  | Some bs -> to_sorted_names t bs
  | None -> []

(** Interned id of a register, for callers that pre-resolve names once and
    then test bits directly (see {!bits_at}). *)
let id_of (t : t) (r : string) : int option = Hashtbl.find_opt t.ids r

(** Raw live-before bitset of a point ([None] for unknown points); query
    with [Bits.mem] and ids from {!id_of}. *)
let bits_at (t : t) (id : int) : Bits.t option = Hashtbl.find_opt t.live_before id

let is_live (t : t) (id : int) (r : string) : bool =
  match (Hashtbl.find_opt t.live_before id, Hashtbl.find_opt t.ids r) with
  | Some bs, Some ri -> Bits.mem bs ri
  | _, _ -> false

let live_out_of (t : t) (label : string) : string list =
  match Hashtbl.find_opt t.live_out label with
  | Some bs -> to_sorted_names t bs
  | None -> []
