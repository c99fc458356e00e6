(** Per-instruction liveness for MiniIR.  [live_before] of an instruction id
    is the set of registers whose current values may still be read on some
    path from that point — the IR analogue of the paper's [live(p, l)]
    (definedness is structural in SSA: a value is defined iff its definition
    dominates the point, so no separate conjunct is needed).

    φ-node incomings are attributed to the tail of the corresponding
    predecessor, as usual.

    Everything is dense.  One walk over the function looks every register
    occurrence up once, numbering registers and recording each point's
    definition and uses as ints; blocks are numbered by position, with int
    successor arrays.  The block fixpoint then works on bitsets: per block,
    its gen set, its definitions (body and φ) and the φ uses its outgoing
    edges carry, so one round is a few byte-wise unions (a word-wide union
    did not move [Osr_ctx.make_pair] beyond noise).  The sets live in a few
    flat byte buffers, the per-point ones in one buffer reached through an
    array indexed by instruction id, so a result is a handful of blocks,
    not one per point.  A result is never written after {!compute}
    returns, so one value can be queried from several domains at once.

    Register ids follow the first occurrence unless [~name_order:true]
    asks for the [String.compare] order of the names: then ascending ids
    are sorted names, so {!live_at} decodes without sorting and a caller
    can walk a live set in name order without decoding it at all.  That
    costs one sort of all the function's names, which the OSR context pays
    once per function side; a caller that asks about one point (the
    continuation generator) leaves it off, and {!live_at} sorts the few
    names it returns.  The original string-set implementation lives on in
    the test suite, which checks the two agree on generated functions, the
    corpus and continuation functions. *)

(* ------------------------------------------------------------------ *)
(* Bitsets over register ids                                            *)
(* ------------------------------------------------------------------ *)

(* A set is [width] bytes at an offset of a flat buffer. *)

let mem_bit (buf : Bytes.t) (off : int) (i : int) : bool =
  Char.code (Bytes.unsafe_get buf (off + (i lsr 3))) land (1 lsl (i land 7)) <> 0

let set_bit (buf : Bytes.t) (off : int) (i : int) : unit =
  let k = off + (i lsr 3) in
  Bytes.unsafe_set buf k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf k) lor (1 lsl (i land 7))))

let clear_bit (buf : Bytes.t) (off : int) (i : int) : unit =
  let k = off + (i lsr 3) in
  Bytes.unsafe_set buf k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf k) land lnot (1 lsl (i land 7))))

(** A read-only view of one set of a result. *)
module Bits = struct
  type t = { buf : Bytes.t; off : int; width : int }

  let mem (b : t) (i : int) : bool = mem_bit b.buf b.off i

  (** Members in ascending order. *)
  let iter (fn : int -> unit) (b : t) : unit =
    for k = 0 to b.width - 1 do
      let byte = Char.code (Bytes.unsafe_get b.buf (b.off + k)) in
      if byte <> 0 then
        for j = 0 to 7 do
          if byte land (1 lsl j) <> 0 then fn ((k lsl 3) lor j)
        done
    done

  (** [fold_desc fn b acc] folds the members in descending order, so
      consing them builds an ascending list. *)
  let fold_desc (fn : int -> 'a -> 'a) (b : t) (acc : 'a) : 'a =
    let acc = ref acc in
    for k = b.width - 1 downto 0 do
      let byte = Char.code (Bytes.unsafe_get b.buf (b.off + k)) in
      if byte <> 0 then
        for j = 7 downto 0 do
          if byte land (1 lsl j) <> 0 then acc := fn ((k lsl 3) lor j) !acc
        done
    done;
    !acc
end

(* String-keyed tables with [String.equal] in place of polymorphic
   compare. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

type t = {
  names : string array;  (** register id → name *)
  ids : int Names.t;  (** name → register id *)
  name_order : bool;  (** ascending ids are names in [String.compare] order *)
  labels : int Names.t;  (** block label → block number (position) *)
  width : int;  (** bytes per set *)
  row : int array;  (** instruction/terminator id → its set in [sets]; [-1] none *)
  sets : Bytes.t;  (** live-before sets, set [j] at byte [j * width] *)
  outs : Bytes.t;  (** live-out of block [k] at byte [k * width] *)
}

(* A growable int array. *)
type ints = { mutable a : int array; mutable len : int }

let ints (n : int) : ints = { a = Array.make (max 16 n) 0; len = 0 }

let push (v : ints) (x : int) : unit =
  if v.len = Array.length v.a then begin
    let a = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  Array.unsafe_set v.a v.len x;
  v.len <- v.len + 1

let compute ?(name_order = false) (f : Ir.func) : t =
  let blocks = Array.of_list f.blocks in
  let nb = Array.length blocks in
  let labels = Names.create (max 16 nb) in
  Array.iteri (fun k (b : Ir.block) -> Names.replace labels b.label k) blocks;
  (* --- One walk: number registers, record every point's definition and
     uses.  Point j of the walk is a body instruction or a terminator
     (block k owns points [blk_lo.(k), blk_lo.(k+1))) and gets set j of
     the result ([row]); its uses are [uses.a.(use_lo.(j)) ..
     uses.a.(use_lo.(j+1) - 1)].  φ-nodes share their block's first set;
     their definitions go to [phi_def], their incomings to (predecessor,
     block, register) triples.  A first pass over the block lists sizes
     the arrays. --- *)
  let npts = ref 0 and max_id = ref (-1) in
  let see id = if id > !max_id then max_id := id in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter (fun (i : Ir.instr) -> see i.id) b.phis;
      List.iter
        (fun (i : Ir.instr) ->
          see i.id;
          incr npts)
        b.body;
      see b.term_id;
      incr npts)
    blocks;
  let npts = !npts in
  let ids = Names.create (max 16 (npts / 2)) in
  let rev_names = ref [] and n = ref 0 in
  let intern r =
    match Names.find_opt ids r with
    | Some i -> i
    | None ->
        let i = !n in
        Names.add ids r i;
        rev_names := r :: !rev_names;
        incr n;
        i
  in
  List.iter (fun p -> ignore (intern p : int)) f.params;
  let row = Array.make (!max_id + 1) (-1) in
  let pt_def = Array.make npts (-1) and use_lo = Array.make (npts + 1) 0 in
  let uses = ints (2 * npts) and phi_def = ints 16 and phi_in = ints 16 in
  let blk_lo = Array.make (nb + 1) 0 and phi_lo = Array.make (nb + 1) 0 in
  let j = ref 0 in
  let point id def =
    row.(id) <- !j;
    pt_def.(!j) <- def;
    use_lo.(!j) <- uses.len;
    incr j
  in
  let use v = match v with Ir.Reg r -> push uses (intern r) | Ir.Const _ | Ir.Undef -> () in
  let def (i : Ir.instr) = match i.result with Some r -> intern r | None -> -1 in
  Array.iteri
    (fun k (b : Ir.block) ->
      blk_lo.(k) <- !j;
      phi_lo.(k) <- phi_def.len;
      List.iter
        (fun (i : Ir.instr) ->
          row.(i.id) <- !j;
          push phi_def (def i);
          match i.rhs with
          | Ir.Phi incoming ->
              List.iter
                (fun (l, v) ->
                  match v with
                  | Ir.Reg r ->
                      push phi_in (Option.value ~default:(-1) (Names.find_opt labels l));
                      push phi_in k;
                      push phi_in (intern r)
                  | Ir.Const _ | Ir.Undef -> ())
                incoming
          | _ -> ())
        b.phis;
      List.iter
        (fun (i : Ir.instr) ->
          point i.id (def i);
          match i.rhs with
          | Ir.Binop (_, a, c) | Ir.Icmp (_, a, c) | Ir.Store (a, c) ->
              use a;
              use c
          | Ir.Select (a, c, e) ->
              use a;
              use c;
              use e
          | Ir.Load a -> use a
          | Ir.Call (_, args) -> List.iter use args
          | Ir.Phi incoming -> List.iter (fun (_, v) -> use v) incoming
          | Ir.Alloca _ -> ())
        b.body;
      point b.term_id (-1);
      match b.term with Ir.Cbr (c, _, _) | Ir.Ret c -> use c | Ir.Br _ | Ir.Unreachable -> ())
    blocks;
  blk_lo.(nb) <- npts;
  phi_lo.(nb) <- phi_def.len;
  use_lo.(npts) <- uses.len;
  let nbits = !n in
  let names = Array.make nbits "" in
  List.iteri (fun k r -> names.(nbits - 1 - k) <- r) !rev_names;
  (* --- Name order: renumber by rank, in place. --- *)
  let names =
    if not name_order then names
    else begin
      let perm = Array.init nbits Fun.id in
      Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) perm;
      let rank = Array.make nbits 0 in
      Array.iteri (fun k i -> rank.(i) <- k) perm;
      let renumber (v : ints) ~(from : int) ~(step : int) =
        let k = ref from in
        while !k < v.len do
          let x = v.a.(!k) in
          if x >= 0 then v.a.(!k) <- rank.(x);
          k := !k + step
        done
      in
      renumber uses ~from:0 ~step:1;
      Array.iteri (fun j x -> if x >= 0 then pt_def.(j) <- rank.(x)) pt_def;
      renumber phi_def ~from:0 ~step:1;
      renumber phi_in ~from:2 ~step:3;
      Names.filter_map_inplace (fun _ i -> Some rank.(i)) ids;
      (* Filled in place: [Array.map] would start the array with a young
         name, and a large array made that way costs a minor collection. *)
      let sorted = Array.make nbits "" in
      Array.iteri (fun k i -> sorted.(k) <- names.(i)) perm;
      sorted
    end
  in
  (* --- Per-block summaries: upward-exposed uses, definitions (body and
     φ), and the φ uses carried by each block's outgoing edges. --- *)
  let width = (nbits + 7) lsr 3 in
  let succs =
    Array.map
      (fun (b : Ir.block) ->
        Array.of_list (List.filter_map (Names.find_opt labels) (Ir.successors b)))
      blocks
  in
  let gen = Bytes.make (nb * width) '\000' and defs = Bytes.make (nb * width) '\000' in
  let edge_uses = Bytes.make (nb * width) '\000' in
  for k = 0 to nb - 1 do
    let off = k * width in
    for j = blk_lo.(k) to blk_lo.(k + 1) - 1 do
      for u = use_lo.(j) to use_lo.(j + 1) - 1 do
        let r = uses.a.(u) in
        if not (mem_bit defs off r) then set_bit gen off r
      done;
      let r = pt_def.(j) in
      if r >= 0 then set_bit defs off r
    done;
    (* φ results are defined at the block top: a body use of one is not
       upward exposed past the block. *)
    for j = phi_lo.(k) to phi_lo.(k + 1) - 1 do
      let r = phi_def.a.(j) in
      if r >= 0 then begin
        clear_bit gen off r;
        set_bit defs off r
      end
    done
  done;
  let e = ref 0 in
  while !e < phi_in.len do
    let p = phi_in.a.(!e) and k = phi_in.a.(!e + 1) in
    if p >= 0 && Array.mem k succs.(p) then set_bit edge_uses (p * width) phi_in.a.(!e + 2);
    e := !e + 3
  done;
  (* --- Block-level fixpoint: out = edge uses ∪ ⋃ succ in,
     in = gen ∪ (out \ defs). --- *)
  let live_in = Bytes.make (nb * width) '\000' and outs = Bytes.make (nb * width) '\000' in
  let tmp = Bytes.create width in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = nb - 1 downto 0 do
      let off = k * width in
      Bytes.blit edge_uses off tmp 0 width;
      Array.iter
        (fun s ->
          let soff = s * width in
          for i = 0 to width - 1 do
            Bytes.unsafe_set tmp i
              (Char.unsafe_chr
                 (Char.code (Bytes.unsafe_get tmp i)
                 lor Char.code (Bytes.unsafe_get live_in (soff + i))))
          done)
        succs.(k);
      for i = 0 to width - 1 do
        let o = Char.code (Bytes.unsafe_get tmp i) in
        if o <> Char.code (Bytes.unsafe_get outs (off + i)) then begin
          Bytes.unsafe_set outs (off + i) (Char.unsafe_chr o);
          changed := true
        end;
        let x =
          Char.code (Bytes.unsafe_get gen (off + i))
          lor (o land lnot (Char.code (Bytes.unsafe_get defs (off + i))))
        in
        if x <> Char.code (Bytes.unsafe_get live_in (off + i)) then begin
          Bytes.unsafe_set live_in (off + i) (Char.unsafe_chr x);
          changed := true
        end
      done
    done
  done;
  (* --- Final per-point backward pass; a block's φ-nodes share the set of
     its first point (their defs are at the block top). --- *)
  let sets = Bytes.create (npts * width) in
  for k = 0 to nb - 1 do
    Bytes.blit outs (k * width) tmp 0 width;
    for j = blk_lo.(k + 1) - 1 downto blk_lo.(k) do
      let r = pt_def.(j) in
      if r >= 0 then clear_bit tmp 0 r;
      for u = use_lo.(j) to use_lo.(j + 1) - 1 do
        set_bit tmp 0 uses.a.(u)
      done;
      Bytes.blit tmp 0 sets (j * width) width
    done
  done;
  { names; ids; name_order; labels; width; row; sets; outs }

let row_of (t : t) (id : int) : int =
  if id >= 0 && id < Array.length t.row then Array.unsafe_get t.row id else -1

let to_sorted_names (t : t) (bs : Bits.t) : string list =
  let names = Bits.fold_desc (fun i acc -> t.names.(i) :: acc) bs [] in
  if t.name_order then names else List.sort String.compare names

(** Raw live-before set of a point ([None] for unknown points); query
    with [Bits.mem] and ids from {!id_of}. *)
let bits_at (t : t) (id : int) : Bits.t option =
  let j = row_of t id in
  if j < 0 then None else Some { Bits.buf = t.sets; off = j * t.width; width = t.width }

(** Registers live just before instruction [id] executes (sorted). *)
let live_at (t : t) (id : int) : string list =
  match bits_at t id with Some bs -> to_sorted_names t bs | None -> []

(** Register id of a name, for callers that resolve names once and then
    test bits directly (see {!bits_at}). *)
let id_of (t : t) (r : string) : int option = Names.find_opt t.ids r

let is_live (t : t) (id : int) (r : string) : bool =
  let j = row_of t id in
  j >= 0
  && match Names.find_opt t.ids r with Some ri -> mem_bit t.sets (j * t.width) ri | None -> false

let live_out_of (t : t) (label : string) : string list =
  match Names.find_opt t.labels label with
  | Some k -> to_sorted_names t { Bits.buf = t.outs; off = k * t.width; width = t.width }
  | None -> []
