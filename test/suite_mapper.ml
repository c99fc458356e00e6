(** Differential gate for the log-only CodeMapper: the query index the
    library replays once from the action log, against the CodeMapper that
    kept its query tables up to date while the passes ran ({!Ref_mapper}).
    The reference is fed as it was during the pipeline: each pass's actions
    right after the pass, and a rolled-back pass undone with its own
    snapshot restore.  The moved set, [resolve_replacement] of every
    register and [alias_inverse], list order included, must agree on the
    12 kernels, the Spec_c sample of [Suite_front], generated functions,
    and pipelines in which a pass is rolled back. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module CM = Passes.Code_mapper

(* The actions recorded after snapshot [s], oldest first. *)
let actions_since (m : CM.t) (s : CM.snapshot) : CM.action list =
  let rec go acc l =
    if l == s then acc else match l with [] -> acc | a :: rest -> go (a :: acc) rest
  in
  go [] m.CM.actions

(* Rollbacks re-enacted on a reference so far. *)
let restores = ref 0

(* [P.apply], with a reference mapper fed alongside.  A rollback shows as
   the function's block list swapped for the pre-pass clone's; it is
   re-enacted on the reference before the next pass runs, and once more
   after the last. *)
let shadow_apply ?(pipeline = P.standard_pipeline) (f : Ir.func) : P.apply_result * Ref_mapper.t
    =
  let refm = Ref_mapper.create () in
  (* The reference's snapshot from before the last pass, and the block
     list that pass left behind. *)
  let last = ref None in
  let settle (g : Ir.func) =
    match !last with
    | Some (snap, blocks) when g.Ir.blocks != blocks ->
        incr restores;
        Ref_mapper.restore refm snap
    | Some _ | None -> ()
  in
  let shadow (p : P.pass) : P.pass =
    {
      p with
      run =
        (fun m g ->
          settle g;
          let snap = Ref_mapper.snapshot refm and before = CM.snapshot m in
          let changed = p.run m g in
          List.iter (Ref_mapper.record_action refm) (actions_since m before);
          last := Some (snap, g.Ir.blocks);
          changed);
    }
  in
  let r = P.apply ~pipeline:(List.map shadow pipeline) f in
  settle r.P.fopt;
  (r, refm)

let sorted_keys h = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])
let sorted_bindings h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let registers (f : Ir.func) : Ir.reg list =
  f.Ir.params @ List.filter_map (fun (i : Ir.instr) -> i.result) (Ir.all_instrs f)

let check ~(what : string) ((r : P.apply_result), (refm : Ref_mapper.t)) : unit =
  let ix = CM.index r.P.mapper in
  Alcotest.(check (list int)) (what ^ ": moved set") (sorted_keys refm.Ref_mapper.moved)
    (sorted_keys ix.CM.moved);
  let show = Option.map Ir.value_to_string in
  List.iter
    (fun x ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: resolve_replacement %%%s" what x)
        (show (Ref_mapper.resolve_replacement refm x))
        (show (CM.resolve_replacement ix x)))
    (List.sort_uniq String.compare (registers r.P.fbase @ registers r.P.fopt));
  Alcotest.(check (list (pair string (list string))))
    (what ^ ": alias_inverse")
    (sorted_bindings (Ref_mapper.alias_inverse refm))
    (sorted_bindings (CM.alias_inverse ix))

let test_kernels () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      check ~what:e.benchmark (shadow_apply (fst (Corpus.Dsl.to_fbase e.kernel))))
    Corpus.Kernels.all

let test_spec_c () =
  List.iter
    (fun (what, k) -> check ~what (shadow_apply (fst (Corpus.Dsl.to_fbase k))))
    (Suite_front.spec_c_sample ())

let prop_generated =
  QCheck.Test.make ~count:100 ~name:"mapper index identical on generated functions"
    Gen_ir.arb_func (fun (raw : Ir.func) ->
      check ~what:raw.Ir.fname (shadow_apply (P.to_fbase raw));
      true)

(* Every kernel with a rolled-back pass (the miscompiling pass of
   [Suite_robustness]) after each pipeline pass: the reference's restore
   rebuilds its tables, the library's log just drops the erased action. *)
let test_rolled_back () =
  let pipeline =
    List.concat_map (fun p -> [ p; Suite_robustness.corrupt_pass ]) P.standard_pipeline
  in
  restores := 0;
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      check ~what:(e.benchmark ^ " (rolled back)")
        (shadow_apply ~pipeline (fst (Corpus.Dsl.to_fbase e.kernel))))
    Corpus.Kernels.all;
  Alcotest.(check int) "every corrupt pass rolled back"
    (List.length P.standard_pipeline * List.length Corpus.Kernels.all)
    !restores

let suite =
  ( "mapper",
    [
      Alcotest.test_case "kernels: index identical" `Quick test_kernels;
      Alcotest.test_case "Spec_c sample: index identical" `Quick test_spec_c;
      Alcotest.test_case "rolled-back passes: index identical" `Quick test_rolled_back;
      QCheck_alcotest.to_alcotest prop_generated;
    ] )
