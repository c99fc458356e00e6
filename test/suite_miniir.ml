(** Tests for the MiniIR substrate: construction, printing/parsing,
    verification, dominance, liveness, loops, and the TinyVM interpreter. *)

module Ir = Miniir.Ir
module Builder = Miniir.Builder
module Verifier = Miniir.Verifier
module Dom = Miniir.Dom
module Liveness = Miniir.Liveness
module Loops = Miniir.Loops
module Interp = Tinyvm.Interp

(* A classic countdown-sum: sum of 0..x-1 via a loop with φ-nodes. *)
let sum_func () : Ir.func =
  let b = Builder.create ~name:"sum" ~params:[ "x" ] in
  Builder.add_block_at b "entry";
  Builder.br b "head";
  Builder.add_block_at b "head";
  let i = Builder.phi ~reg:"i" b [ ("entry", Ir.Const 0); ("body", Ir.Reg "i2") ] in
  let s = Builder.phi ~reg:"s" b [ ("entry", Ir.Const 0); ("body", Ir.Reg "s2") ] in
  let c = Builder.icmp b Ir.Slt i (Builder.param b "x") in
  Builder.cbr b c "body" "exit";
  Builder.add_block_at b "body";
  let s2 = Builder.add ~reg:"s2" b s i in
  let _i2 = Builder.add ~reg:"i2" b i (Ir.Const 1) in
  ignore s2;
  Builder.br b "head";
  Builder.add_block_at b "exit";
  Builder.ret b s;
  Builder.finish b

let run_int f args =
  match Interp.run f ~args with
  | Ok o -> o.Interp.ret
  | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t

let test_builder_and_interp () =
  let f = sum_func () in
  Miniir.Verifier.verify_exn f;
  Alcotest.(check int) "sum 0..9" 45 (run_int f [ 10 ]);
  Alcotest.(check int) "sum of none" 0 (run_int f [ 0 ]);
  Alcotest.(check int) "negative bound" 0 (run_int f [ -3 ])

let test_print_parse_roundtrip () =
  let f = sum_func () in
  let txt = Ir.func_to_string f in
  let g = Miniir.Ir_parser.parse_func txt in
  Verifier.verify_exn g;
  Alcotest.(check int) "same behaviour" (run_int f [ 7 ]) (run_int g [ 7 ]);
  Alcotest.(check int) "instruction count" (Ir.instr_count f) (Ir.instr_count g);
  Alcotest.(check int) "phi count" (Ir.phi_count f) (Ir.phi_count g)

let test_parser_errors () =
  let expect_fail src =
    match Miniir.Ir_parser.parse_func src with
    | _ -> Alcotest.failf "expected parse error for %S" src
    | exception Miniir.Ir_parser.Parse_error _ -> ()
  in
  expect_fail "func @f(%x) {\nentry:\n  %a = bogus %x, 1\n  ret %a\n}\n";
  expect_fail "func @f(%x) {\nentry:\n  %a = add ?, 1\n  ret %a\n}\n";
  expect_fail "%a = add 1, 2\n";
  match Miniir.Ir_parser.parse_func "func @f(%x) {\nentry:\n  br a\na:\n  br a\na:\n  ret %x\n}\n" with
  | _ -> Alcotest.fail "duplicate label parsed"
  | exception Miniir.Ir_parser.Parse_error (_, line) ->
      Alcotest.(check int) "duplicate label reported at its second line" 6 line

let test_verifier_catches () =
  let bad_use () =
    (* use of a register defined in a non-dominating block *)
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  %t = add %x, 1\n\
      \  br join\n\
       b:\n\
      \  br join\n\
       join:\n\
      \  %u = add %t, 1\n\
      \  ret %u\n\
       }\n"
  in
  (match Verifier.verify (bad_use ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier missed non-dominating use");
  let double_def =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\nentry:\n  %t = add %x, 1\n  %t = add %x, 2\n  ret %t\n}\n"
  in
  match Verifier.verify double_def with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier missed double definition"

let test_verifier_phi_shape () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, head, exit\n\
       exit:\n\
      \  ret %i\n\
       }\n"
  in
  (* head has two predecessors (entry, head) but the φ lists only one. *)
  (match Verifier.verify f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier missed φ/predecessor mismatch");
  (* Two incomings from one predecessor: the label sets agree, but the
     engines would silently take the first incoming. *)
  let g =
    Miniir.Ir_parser.parse_func
      "func @g(%x) {\n\
       entry:\n\
      \  br a\n\
       a:\n\
      \  br b\n\
       b:\n\
      \  %m = phi [a: %x], [a: 7]\n\
      \  ret %m\n\
       }\n"
  in
  match Verifier.verify g with
  | Error [ e ] ->
      Alcotest.(check string) "duplicate incoming reported" "b: phi #3 has more than one incoming from {a}"
        (Fmt.str "%a" Verifier.pp_error e)
  | Error es ->
      Alcotest.failf "expected one error, got:@.%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es
  | Ok () -> Alcotest.fail "verifier missed a duplicate φ incoming"

let test_dominance () =
  let f = sum_func () in
  let dom = Dom.compute (Miniir.Func_index.make f) in
  Alcotest.(check bool) "entry dominates exit" true
    (Dom.dominates_block dom ~a:"entry" ~b:"exit");
  Alcotest.(check bool) "head dominates body" true (Dom.dominates_block dom ~a:"head" ~b:"body");
  Alcotest.(check bool) "body does not dominate exit" false
    (Dom.dominates_block dom ~a:"body" ~b:"exit");
  Alcotest.(check (option string)) "idom of exit" (Some "head") (Dom.idom_of dom "exit")

let test_dominance_frontier () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  br join\n\
       b:\n\
      \  br join\n\
       join:\n\
      \  ret %x\n\
       }\n"
  in
  let index = Miniir.Func_index.make f in
  let df = Dom.frontiers (Dom.compute index) in
  let df_of l = Miniir.Func_index.labels_of index df.(Miniir.Func_index.block_number index l) in
  Alcotest.(check (list string)) "df(a)" [ "join" ] (df_of "a");
  Alcotest.(check (list string)) "df(b)" [ "join" ] (df_of "b");
  Alcotest.(check (list string)) "df(entry)" [] (df_of "entry")

let test_liveness () =
  let f = sum_func () in
  let lv = Liveness.compute (Miniir.Func_index.make f) in
  let def_tbl = Ir.def_table f in
  let s2_def = (Ir.Names.find def_tbl "s2").Ir.di.id in
  (* At s2's definition, i and s are live (both still read after). *)
  Alcotest.(check bool) "i live at s2 def" true (Liveness.is_live lv s2_def "i");
  Alcotest.(check bool) "s live at s2 def" true (Liveness.is_live lv s2_def "s");
  (* x is live inside the loop (read by the comparison each iteration). *)
  let c_def = (Ir.Names.find def_tbl "t.0").Ir.di.id in
  Alcotest.(check bool) "x live at cmp" true (Liveness.is_live lv c_def "x");
  (* After the exit branch, only s matters. *)
  let exit_term = (Ir.block_exn f "exit").term_id in
  Alcotest.(check (list string)) "live at ret" [ "s" ] (Liveness.live_at lv exit_term)

let test_loops () =
  let f = sum_func () in
  let li = Loops.compute (Dom.compute (Miniir.Func_index.make f)) in
  match li.loops with
  | [ l ] ->
      Alcotest.(check string) "header" "head" l.header;
      Alcotest.(check (list string)) "body" [ "body"; "head" ] (List.sort compare l.body);
      let index = Miniir.Func_index.make f in
      Alcotest.(check (list string)) "exit targets" [ "exit" ] (Loops.exit_targets index l);
      Alcotest.(check (option string)) "preheader" (Some "entry") (Loops.preheader index l)
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

(* Two sibling self-loops of one block each: equal sizes keep header block
   order, whatever the labels hash to. *)
let test_loops_sibling_order () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  br h0\n\
       h0:\n\
      \  %c0 = icmp slt %x, 1\n\
      \  cbr %c0, h0, h1\n\
       h1:\n\
      \  br h2\n\
       h2:\n\
      \  %c2 = icmp slt %x, 2\n\
      \  cbr %c2, h2, exit\n\
       exit:\n\
      \  ret 0\n\
       }\n"
  in
  let li = Loops.compute (Dom.compute (Miniir.Func_index.make f)) in
  Alcotest.(check (list string)) "headers in block order" [ "h0"; "h2" ]
    (List.map (fun (l : Loops.loop) -> l.header) li.loops)

let test_interp_memory () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  %a = alloca 4\n\
      \  %a1 = add %a, 1\n\
      \  store %x, %a1\n\
      \  %v = load %a1\n\
      \  %z = load %a\n\
      \  %r = add %v, %z\n\
      \  ret %r\n\
       }\n"
  in
  Alcotest.(check int) "store/load + zero-init" 42 (run_int f [ 42 ])

let test_interp_traps () =
  let div =
    Miniir.Ir_parser.parse_func "func @f(%x) {\nentry:\n  %r = sdiv 10, %x\n  ret %r\n}\n"
  in
  (match Interp.run div ~args:[ 0 ] with
  | Error (Interp.Division_by_zero _) -> ()
  | r -> Alcotest.failf "expected div0 trap, got %a" Interp.pp_result r);
  Alcotest.(check int) "normal division" 5 (run_int div [ 2 ]);
  let unk =
    Miniir.Ir_parser.parse_func "func @f(%x) {\nentry:\n  %r = call @mystery(%x)\n  ret %r\n}\n"
  in
  match Interp.run unk ~args:[ 1 ] with
  | Error (Interp.Unknown_intrinsic _) -> ()
  | r -> Alcotest.failf "expected unknown intrinsic, got %a" Interp.pp_result r

let test_interp_events () =
  let f =
    Miniir.Ir_parser.parse_func
      "func @f(%x) {\n\
       entry:\n\
      \  call @emit(%x)\n\
      \  %y = mul %x, 2\n\
      \  call @emit(%y)\n\
      \  ret %y\n\
       }\n"
  in
  match Interp.run f ~args:[ 3 ] with
  | Ok o ->
      Alcotest.(check (list (list int))) "events" [ [ 3 ]; [ 6 ] ]
        (List.map (fun (e : Interp.event) -> e.arg_values) o.events)
  | Error t -> Alcotest.failf "trap %a" Interp.pp_trap t

let test_machine_stepping () =
  let f = sum_func () in
  let m = Interp.create f ~args:[ 3 ] in
  (* Step to the third arrival at the s2 definition. *)
  let def_tbl = Ir.def_table f in
  let s2_def = (Ir.Names.find def_tbl "s2").Ir.di.id in
  match Interp.run_to_point m ~point:s2_def ~skip:2 with
  | Some m ->
      Alcotest.(check (option int)) "i = 2 on third arrival" (Some 2)
        (Hashtbl.find_opt m.frame "i");
      Alcotest.(check (option int)) "s = 1" (Some 1) (Hashtbl.find_opt m.frame "s")
  | None -> Alcotest.fail "point not reached"

let test_clone_independent () =
  let f = sum_func () in
  let g = Ir.clone_func f in
  (Ir.block_exn g "body").body <- [];
  Alcotest.(check bool) "original untouched" true ((Ir.block_exn f "body").body <> []);
  Alcotest.(check int) "original still runs" 45 (run_int f [ 10 ])

(* -------------------- properties -------------------- *)

let prop_generated_verify =
  QCheck.Test.make ~count:150 ~name:"generated IR verifies" Gen_ir.arb_func (fun f ->
      match Verifier.verify f with
      | Ok () -> true
      | Error es ->
          QCheck.Test.fail_reportf "%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es)

let prop_generated_terminate =
  QCheck.Test.make ~count:150 ~name:"generated IR terminates" Gen_ir.arb_func_with_args
    (fun (f, args) ->
      match Interp.run ~fuel:1_000_000 f ~args with
      | Ok _ -> true
      | Error (Interp.Fuel_exhausted _) -> QCheck.Test.fail_report "out of fuel"
      | Error t -> QCheck.Test.fail_reportf "trap: %a" Interp.pp_trap t)

let prop_roundtrip =
  QCheck.Test.make ~count:100 ~name:"IR print/parse round-trip behaviour"
    Gen_ir.arb_func_with_args (fun (f, args) ->
      let g = Miniir.Ir_parser.parse_func (Ir.func_to_string f) in
      Interp.equal_result (Interp.run f ~args) (Interp.run g ~args))

let prop_determinism =
  QCheck.Test.make ~count:80 ~name:"interpreter is deterministic" Gen_ir.arb_func_with_args
    (fun (f, args) -> Interp.equal_result (Interp.run f ~args) (Interp.run f ~args))

(* Every program point of [f]: φ ids, body ids, terminator ids. *)
let all_points (f : Ir.func) : int list =
  List.concat_map
    (fun (b : Ir.block) ->
      List.map (fun (i : Ir.instr) -> i.Ir.id) (b.phis @ b.body) @ [ b.term_id ])
    f.blocks

let all_regs (f : Ir.func) : string list =
  let def_tbl = Ir.def_table f in
  f.params @ Ir.Names.fold (fun r _ acc -> r :: acc) def_tbl []

(* The first disagreement between [Liveness], in both register
   numberings, and the string-set reference on [f]: [live_at] (sorted) at
   every point and at two ids that are no point, [is_live] of every
   register and of an unknown name at every point, and [live_out_of] of
   every block. *)
let liveness_disagreement (f : Ir.func) : string option =
  let oracle = Ref_miniir.Liveness.compute f in
  let points = all_points f in
  let absent = 1 + List.fold_left max 0 points in
  let regs = "nonexistent" :: all_regs f in
  let check (name_order : bool) =
    let lv = Liveness.compute ~name_order (Miniir.Func_index.make f) in
    let fail fmt = Printf.ksprintf (fun m -> Some (Printf.sprintf "name_order %b: %s" name_order m)) fmt in
    let at p =
      let got = Liveness.live_at lv p and want = Ref_miniir.Liveness.live_at oracle p in
      if got <> want then
        fail "live_at %d: [%s] vs reference [%s]" p (String.concat " " got)
          (String.concat " " want)
      else if got <> List.sort String.compare got then fail "live_at %d is not sorted" p
      else
        List.find_map
          (fun r ->
            if Liveness.is_live lv p r <> Ref_miniir.Liveness.is_live oracle p r then
              fail "is_live %d %s disagrees" p r
            else None)
          regs
    in
    match List.find_map at (-1 :: absent :: points) with
    | Some _ as e -> e
    | None ->
        List.find_map
          (fun (b : Ir.block) ->
            if Liveness.live_out_of lv b.label <> Ref_miniir.Liveness.live_out_of oracle b.label
            then fail "live_out_of %s disagrees" b.label
            else None)
          f.blocks
  in
  match check false with Some _ as e -> e | None -> check true

let prop_liveness_agrees_with_reference =
  QCheck.Test.make ~count:150 ~name:"bitset liveness agrees with reference"
    Gen_ir.arb_func (fun (f : Ir.func) ->
      match liveness_disagreement f with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s\n%s" msg (Ir.func_to_string f))

(* The same oracle beyond generated functions: the 12 kernels and the
   Spec_c sample of the debug study, fbase and fopt each, and for every
   kernel the continuation function of its first feasible forward point,
   re-promoted and in the raw demoted form. *)
let test_liveness_corpus () =
  let check what (f : Ir.func) =
    match liveness_disagreement f with
    | None -> ()
    | Some msg -> Alcotest.failf "%s (@%s): %s" what f.Ir.fname msg
  in
  let pair what (k : Corpus.Dsl.kernel) =
    let r = Passes.Pass_manager.apply (fst (Corpus.Dsl.to_fbase k)) in
    check (what ^ " fbase") r.fbase;
    check (what ^ " fopt") r.fopt;
    r
  in
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let r = pair e.benchmark e.kernel in
      let ctx =
        Osrir.Osr_ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Osrir.Osr_ctx.Base_to_opt
      in
      match
        List.find_map
          (fun (rep : Osrir.Feasibility.point_report) ->
            match (rep.landing, rep.avail_plan) with
            | Some landing, Some plan -> Some (landing, plan)
            | _ -> None)
          (Osrir.Feasibility.analyze ctx).reports
      with
      | None -> Alcotest.failf "%s: no feasible point" e.benchmark
      | Some (landing, plan) ->
          List.iter
            (fun promote ->
              let cont = Osrir.Contfun.generate ~promote r.fopt ~landing plan in
              check (Printf.sprintf "%s fto (promote %b)" e.benchmark promote) cont.fto)
            [ true; false ])
    Corpus.Kernels.all;
  let sample = Suite_front.spec_c_sample () in
  Alcotest.(check bool) "at least 128 Spec_c functions" true (List.length sample >= 128);
  List.iter (fun (what, k) -> ignore (pair what k : Passes.Pass_manager.apply_result)) sample

(* The first query on which the dense index disagrees with the frozen
   [Hashtbl] index of {!Ref_miniir}: block lookup, predecessors and
   successors of every label the function names (blocks, branch targets,
   φ incomings and one it does not), the position and owner of every id
   from -1 to two past the largest, and the definition table against the
   frozen index's. *)
let index_mismatch (f : Ir.func) : string option =
  let module Old = Ref_miniir.Func_index in
  let module New = Miniir.Func_index in
  let o = Old.make f and n = New.make f in
  let fail fmt = Printf.ksprintf Option.some fmt in
  let labels =
    "nonexistent"
    :: List.concat_map
         (fun (b : Ir.block) ->
           (b.label :: Ir.successors b)
           @ List.concat_map
               (fun (i : Ir.instr) ->
                 match i.rhs with Ir.Phi inc -> List.map fst inc | _ -> [])
               b.phis)
         f.blocks
  in
  let same_block a b =
    match (a, b) with Some x, Some y -> x == y | None, None -> true | _ -> false
  in
  match
    List.find_opt
      (fun l ->
        not
          (same_block (Old.find_block o l) (New.find_block n l)
          && Old.predecessors o l = New.predecessors n l
          && Old.successors o l = New.successors n l))
      labels
  with
  | Some l -> fail "label %s" l
  | None -> (
      let max_id = Hashtbl.fold (fun id _ m -> max id m) o.positions f.next_id in
      let rec ids k =
        if k > max_id + 2 then None
        else if Old.position_of o k <> New.position_of n k || Old.owner_of o k <> New.owner_of n k
        then fail "id #%d" k
        else ids (k + 1)
      in
      match ids (-1) with
      | Some _ as e -> e
      | None ->
          let defs = Ir.def_table f in
          if Hashtbl.length o.defs <> Ir.Names.length defs then fail "definition count"
          else
            Hashtbl.fold
              (fun r (d : Ir.def_site) acc ->
                match (acc, Ir.Names.find_opt defs r) with
                | Some _, _ -> acc
                | None, Some d'
                  when d'.di == d.di && String.equal d'.block d.block && d'.in_phis = d.in_phis ->
                    None
                | None, _ -> fail "definition of %%%s" r)
              o.defs None)

let prop_func_index_consistent =
  QCheck.Test.make ~count:150 ~name:"Func_index agrees with linear lookups"
    Gen_ir.arb_func (fun (f : Ir.func) ->
      let idx = Miniir.Func_index.make f in
      (match Ref_miniir.Func_index.check (Ref_miniir.Func_index.make f) with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "Func_index.check: %s" msg);
      (match index_mismatch f with
      | None -> ()
      | Some msg -> QCheck.Test.fail_reportf "dense index differs: %s" msg);
      List.for_all
        (fun (b : Ir.block) ->
          (match (Miniir.Func_index.find_block idx b.label, Ir.find_block f b.label) with
          | Some b1, Some b2 -> b1 == b2
          | _ -> false)
          && Miniir.Func_index.successors idx b.label = Ir.successors b
          && List.sort compare (Miniir.Func_index.predecessors idx b.label)
             = List.sort compare (Ir.predecessors f b.label))
        f.blocks
      && Miniir.Func_index.find_block idx "nonexistent" = None
      && List.for_all
           (fun p ->
             match Miniir.Func_index.position_of idx p with
             | None -> false
             | Some (label, _) -> Miniir.Func_index.owner_of idx p = Some label)
           (all_points f))

(* The functions of the index and register gates: the 12 kernels' fbase
   and fopt and each kernel's first feasible forward continuation, the
   Spec_c sample's fbase and fopt, and 60 generated functions raw, as
   fbase and as fopt.  Built once; no check mutates them. *)
let gate_functions : (string * Ir.func) list Lazy.t =
  lazy
    (let inputs = ref [] in
     let add what f = inputs := (what, f) :: !inputs in
     let pipeline what fbase =
       let r = Passes.Pass_manager.apply fbase in
       add (what ^ " fbase") r.fbase;
       add (what ^ " fopt") r.fopt;
       r
     in
     List.iter
       (fun (e : Corpus.Kernels.entry) ->
         let r = pipeline e.benchmark (fst (Corpus.Dsl.to_fbase e.kernel)) in
         let ctx =
           Osrir.Osr_ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper
             Osrir.Osr_ctx.Base_to_opt
         in
         List.find_map
           (fun (rep : Osrir.Feasibility.point_report) ->
             match (rep.landing, rep.avail_plan) with
             | Some landing, Some plan -> Some (Osrir.Contfun.generate r.fopt ~landing plan).fto
             | _ -> None)
           (Osrir.Feasibility.analyze ctx).reports
         |> Option.iter (add (e.benchmark ^ " fto")))
       Corpus.Kernels.all;
     List.iter
       (fun (what, k) ->
         ignore (pipeline what (fst (Corpus.Dsl.to_fbase k)) : Passes.Pass_manager.apply_result))
       (Suite_front.spec_c_sample ());
     List.iteri
       (fun n raw ->
         let what = Printf.sprintf "generated #%d" n in
         add (what ^ " raw") (Ir.clone_func raw);
         ignore
           (pipeline what (Passes.Pass_manager.to_fbase raw) : Passes.Pass_manager.apply_result))
       (QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:60 Gen_ir.gen_func);
     List.rev !inputs)

(* The dense index against the frozen one beyond generated functions: the
   gate functions, one mutant of every kind of the front gate per
   pipeline output, and a function with an id above [next_id]. *)
let test_index_corpus () =
  let outputs = Lazy.force gate_functions in
  let inputs = ref (List.rev outputs) in
  let add what f = inputs := (what, f) :: !inputs in
  let rng = Random.State.make [| 19 |] in
  List.iter
    (fun (what, f) ->
      List.iter
        (fun (kind, mutate) ->
          let g = Ir.clone_func f in
          if mutate rng g then add (Printf.sprintf "%s, %s" what kind) g)
        Suite_front.mutant_kinds)
    outputs;
  let g = Ir.clone_func (snd (List.hd outputs)) in
  let b = Ir.entry g in
  b.body <- { (List.hd b.body) with id = g.next_id + 3 } :: List.tl b.body;
  add "id >= next_id" g;
  let checked = ref 0 in
  List.iter
    (fun (what, f) ->
      incr checked;
      match index_mismatch f with
      | None -> ()
      | Some msg -> Alcotest.failf "%s (@%s): dense index differs: %s" what f.Ir.fname msg)
    (List.rev !inputs);
  Alcotest.(check bool) "over 2,000 functions checked" true (!checked > 2000)

(* The first field on which [Func_index.registers] disagrees with linear
   scans of [f]: the names in id order (parameters, then results in block
   and instruction order), the parameter count, each register's last
   definition, each point's result, instruction and operand ids (no id
   for a register nothing defines), and each register's users in block
   order (φ-nodes, body, terminator), each once. *)
let registers_mismatch (f : Ir.func) : string option =
  let module FI = Miniir.Func_index in
  let t = FI.registers (FI.make f) in
  let fail fmt = Printf.ksprintf Option.some fmt in
  (* Every point in block order with its instruction (None for a
     terminator), its result and its operands. *)
  let points =
    List.concat_map
      (fun (b : Ir.block) ->
        List.map (fun (i : Ir.instr) -> (i.id, Some i, i.result, Ir.rhs_operands i.rhs)) (b.phis @ b.body)
        @ [ (b.term_id, None, None, Ir.term_operands b.term) ])
      f.blocks
  in
  let defined = List.filter_map (fun (_, _, r, _) -> r) points in
  let names =
    List.fold_left
      (fun acc r -> if List.mem r acc then acc else acc @ [ r ])
      [] (f.params @ defined)
  in
  let id r =
    let rec go k = function [] -> -1 | x :: rest -> if String.equal x r then k else go (k + 1) rest in
    go 0 names
  in
  let n_params = List.length (List.sort_uniq String.compare f.params) in
  if Array.to_list t.names <> names then fail "names [%s]" (String.concat " " (Array.to_list t.names))
  else if t.n_params <> n_params then fail "n_params %d, want %d" t.n_params n_params
  else
    let reg_checks =
      List.mapi
        (fun v r ->
          let def =
            List.fold_left
              (fun acc (p, _, res, _) -> if res = Some r then p else acc)
              (-1) points
          in
          let users =
            List.filter_map
              (fun (p, _, _, ops) -> if List.mem (Ir.Reg r) ops then Some p else None)
              points
          in
          if t.def.(v) <> def then fail "def of %%%s: %d, want %d" r t.def.(v) def
          else if t.users.(v) <> users then
            fail "users of %%%s: [%s], want [%s]" r
              (String.concat " " (List.map string_of_int t.users.(v)))
              (String.concat " " (List.map string_of_int users))
          else None)
        names
    in
    match List.find_map Fun.id reg_checks with
    | Some _ as e -> e
    | None ->
        List.find_map
          (fun (p, i, res, ops) ->
            let instr_ok =
              match i with Some i -> t.instr.(p) == i | None -> t.instr.(p) == FI.no_instr
            in
            let result_ok = t.result.(p) = match res with Some r -> id r | None -> -1 in
            let operands_ok =
              List.mapi (fun k v -> (k, v)) ops
              |> List.for_all (fun (k, v) ->
                     t.operands.(t.first_operand.(p) + k)
                     = match v with Ir.Reg r -> id r | Ir.Const _ | Ir.Undef -> -1)
            in
            if not instr_ok then fail "instruction at #%d" p
            else if not result_ok then fail "result at #%d" p
            else if not operands_ok then fail "operands at #%d" p
            else None)
          points

(* The register table on the gate functions and on functions that read a
   register no instruction defines, redefine a parameter or read one
   register twice. *)
let test_registers_corpus () =
  let odd =
    List.map
      (fun src -> ("hand-written", Miniir.Ir_parser.parse_func src))
      [
        "func @f(%x, %y) {\nentry:\n  %a = add %x, %x\n  %b = add %u, %a\n  cbr %a, l, r\nl:\n  %x = mul %b, %v\n  br r\nr:\n  %c = phi [entry: %a], [l: %a]\n  ret %c\n}\n";
      ]
  in
  let checked = ref 0 in
  List.iter
    (fun (what, f) ->
      incr checked;
      match registers_mismatch f with
      | None -> ()
      | Some msg -> Alcotest.failf "%s (@%s): register table differs: %s" what f.Ir.fname msg)
    (Lazy.force gate_functions @ odd);
  Alcotest.(check bool) "over 400 functions checked" true (!checked > 400)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "miniir",
    [
      t "builder + interpreter" test_builder_and_interp;
      t "print/parse round-trip" test_print_parse_roundtrip;
      t "parser rejects garbage" test_parser_errors;
      t "verifier catches SSA breakage" test_verifier_catches;
      t "verifier checks φ shape" test_verifier_phi_shape;
      t "dominance" test_dominance;
      t "dominance frontier" test_dominance_frontier;
      t "liveness" test_liveness;
      t "liveness agrees with reference on the corpus" test_liveness_corpus;
      t "loop detection" test_loops;
      t "sibling loops in header block order" test_loops_sibling_order;
      t "dense Func_index agrees with the frozen index" test_index_corpus;
      t "register table agrees with linear scans" test_registers_corpus;
      t "interp memory" test_interp_memory;
      t "interp traps" test_interp_traps;
      t "interp events" test_interp_events;
      t "machine stepping" test_machine_stepping;
      t "clone independence" test_clone_independent;
      q prop_generated_verify;
      q prop_generated_terminate;
      q prop_roundtrip;
      q prop_determinism;
      q prop_liveness_agrees_with_reference;
      q prop_func_index_consistent;
    ] )
