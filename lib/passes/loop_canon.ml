open Import

(** Loop canonicalization (the paper's LC): give every natural loop a
    dedicated preheader — a single outside predecessor block that branches
    straight to the header.  Header φ-nodes are rewired so the preheader
    contributes exactly one incoming; when several outside predecessors
    merge, a new φ in the preheader collects them (those new φ-nodes are
    the "extra ϕ-nodes commonly generated during canonicalization" of
    Table 2's discussion).  OSR-aware: inserted φ-nodes are recorded as
    [add] actions. *)

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    (* Each round rewires edges, so it indexes the function afresh. *)
    let index = Func_index.make f in
    let loop_info = Loops.compute (Dom.compute index) in
    let needs_preheader =
      List.find_opt (fun l -> Loops.preheader index l = None) loop_info.loops
    in
    match needs_preheader with
    | None -> ()
    | Some l ->
        (match Loops.outside_preds index l with
        | [] -> ()  (* unreachable loop; nothing to canonicalize *)
        | outside ->
            changed := true;
            continue_ := true;
            let ph_label =
              (* unique name *)
              let base = "ph." ^ l.header in
              let rec uniq k =
                let cand = if k = 0 then base else Printf.sprintf "%s.%d" base k in
                if Ir.find_block f cand = None then cand else uniq (k + 1)
              in
              uniq 0
            in
            let ph =
              {
                Ir.label = ph_label;
                phis = [];
                body = [];
                term = Ir.Br l.header;
                term_id = Ir.fresh_id f;
              }
            in
            (* Insert before the header for readability. *)
            let rec insert = function
              | [] -> [ ph ]
              | b :: rest ->
                  if String.equal b.Ir.label l.header then ph :: b :: rest else b :: insert rest
            in
            f.blocks <- insert f.blocks;
            (* Redirect outside predecessors to the preheader. *)
            let redirect t =
              match t with
              | Ir.Br x when String.equal x l.header -> Ir.Br ph_label
              | Ir.Cbr (c, a, b) ->
                  let a = if String.equal a l.header then ph_label else a in
                  let b = if String.equal b l.header then ph_label else b in
                  Ir.Cbr (c, a, b)
              | t -> t
            in
            List.iter
              (fun p ->
                let pb = Ir.block_exn f p in
                pb.term <- redirect pb.term)
              outside;
            (* Rewire header φ-nodes: merge outside incomings. *)
            let header_blk = Ir.block_exn f l.header in
            List.iter
              (fun (phi : Ir.instr) ->
                match phi.rhs with
                | Ir.Phi incoming ->
                    let from_outside, from_inside =
                      List.partition (fun (p, _) -> List.mem p outside) incoming
                    in
                    let ph_value =
                      match from_outside with
                      | [] -> Ir.Undef
                      | [ (_, v) ] -> v
                      | many ->
                          if
                            (* All outside incomings equal: no φ needed. *)
                            List.for_all (fun (_, v) -> Ir.equal_value v (snd (List.hd many))) many
                          then snd (List.hd many)
                          else begin
                            let merge =
                              {
                                Ir.id = Ir.fresh_id f;
                                result = Some (Ir.fresh_reg ~hint:"lc.phi" f);
                                rhs = Ir.Phi many;
                              }
                            in
                            ph.phis <- ph.phis @ [ merge ];
                            Code_mapper.add_instr m merge ~block:ph_label;
                            Ir.Reg (Option.get merge.result)
                          end
                    in
                    phi.rhs <- Ir.Phi ((ph_label, ph_value) :: from_inside)
                | _ -> ())
              header_blk.phis)
  done;
  !changed
