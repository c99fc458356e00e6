(** Tests for the optimization passes: each preserves observable behaviour
    on random programs, does what it claims on targeted inputs, and records
    coherent CodeMapper actions. *)

module Ir = Miniir.Ir
module Verifier = Miniir.Verifier
module Interp = Tinyvm.Interp
module P = Passes.Pass_manager
module CM = Passes.Code_mapper

let parse = Miniir.Ir_parser.parse_func

(* Run one pass on its own, with a fresh mapper unless the caller inspects
   it. *)
let run_pass ?(mapper = CM.create ()) (run : CM.t -> Ir.func -> bool) f : bool = run mapper f

let run_int f args =
  match Interp.run f ~args with
  | Ok o -> o.Interp.ret
  | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t

(* -------------------- mem2reg -------------------- *)

let test_mem2reg_promotes () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store 0, %s\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  store 1, %s\n\
      \  br join\n\
       b:\n\
      \  store 2, %s\n\
      \  br join\n\
       join:\n\
      \  %v = load %s\n\
      \  ret %v\n\
       }\n"
  in
  let g = P.to_fbase f in
  Alcotest.(check int) "no allocas left" 0
    (List.length
       (List.filter (fun (i : Ir.instr) -> match i.rhs with Ir.Alloca _ -> true | _ -> false)
          (Ir.all_instrs g)));
  Alcotest.(check int) "phi inserted at join" 1 (List.length (Ir.block_exn g "join").phis);
  Alcotest.(check int) "then-value" 1 (run_int g [ 5 ]);
  Alcotest.(check int) "else-value" 2 (run_int g [ 0 ])

let test_mem2reg_keeps_escaping () =
  (* The address itself is stored elsewhere: not promotable. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  %p = alloca\n\
      \  store %s, %p\n\
      \  store %x, %s\n\
      \  %q = load %p\n\
      \  %v = load %q\n\
      \  ret %v\n\
       }\n"
  in
  let g = P.to_fbase f in
  Alcotest.(check bool) "escaping alloca survives" true
    (List.exists (fun (i : Ir.instr) -> match i.rhs with Ir.Alloca _ -> true | _ -> false)
       (Ir.all_instrs g));
  Alcotest.(check int) "still correct" 9 (run_int g [ 9 ])

(* -------------------- individual pass behaviours -------------------- *)

let test_constprop_folds () =
  let f = parse "func @f(%x) {\nentry:\n  %a = add 2, 3\n  %b = mul %a, 4\n  %c = add %b, %x\n  ret %c\n}\n" in
  let m = CM.create () in
  let changed = run_pass ~mapper:m Passes.Constprop.run f in
  Alcotest.(check bool) "changed" true changed;
  Verifier.verify_exn f;
  Alcotest.(check int) "a and b folded away" 1 (Ir.instr_count f);
  Alcotest.(check int) "semantics" 21 (run_int f [ 1 ]);
  let counts = CM.counts m in
  Alcotest.(check int) "2 deletes" 2 counts.delete;
  Alcotest.(check int) "2 replaces" 2 counts.replace

let test_constprop_keeps_trapping_div () =
  let f = parse "func @f(%x) {\nentry:\n  %a = sdiv 1, 0\n  ret %a\n}\n" in
  let _ = run_pass Passes.Constprop.run f in
  (match Interp.run f ~args:[ 0 ] with
  | Error (Interp.Division_by_zero _) -> ()
  | r -> Alcotest.failf "div by zero must survive folding: %a" Interp.pp_result r)

let test_cse_dedups () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %a = add %x, %y\n\
      \  %b = add %x, %y\n\
      \  %c = mul %a, %b\n\
      \  ret %c\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Cse.run f in
  Verifier.verify_exn f;
  Alcotest.(check int) "one add left" 2 (Ir.instr_count f);
  Alcotest.(check int) "semantics" 25 (run_int f [ 2; 3 ]);
  Alcotest.(check (list (list string))) "b aliases a" [ [ "b" ] ]
    (Option.to_list (Hashtbl.find_opt (CM.alias_inverse (CM.index m)) "a"))

let test_cse_commutative () =
  let f =
    parse
      "func @f(%x, %y) {\nentry:\n  %a = add %x, %y\n  %b = add %y, %x\n  %c = sub %a, %b\n  ret %c\n}\n"
  in
  let _ = run_pass Passes.Cse.run f in
  Alcotest.(check int) "commutative add deduped" 2 (Ir.instr_count f)

let test_cse_load_generations () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store %x, %s\n\
      \  %a = load %s\n\
      \  %b = load %s\n\
      \  store 9, %s\n\
      \  %c = load %s\n\
      \  %r1 = add %a, %b\n\
      \  %r = add %r1, %c\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass Passes.Cse.run f in
  Verifier.verify_exn f;
  (* %a and %b forward from the first store, and %c from the second — all
     three loads disappear while the generation check keeps %c at 9, not x.
     x=5: a=b=5, c=9 → 19. *)
  Alcotest.(check int) "semantics" 19 (run_int f [ 5 ]);
  let loads =
    List.length
      (List.filter (fun (i : Ir.instr) -> match i.rhs with Ir.Load _ -> true | _ -> false)
         (Ir.all_instrs f))
  in
  Alcotest.(check int) "all loads forwarded" 0 loads

let test_adce_removes_chains () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %d1 = add %x, 1\n\
      \  %d2 = mul %d1, 2\n\
      \  %d3 = add %d2, %d1\n\
      \  %keep = add %x, 5\n\
      \  ret %keep\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Adce.run f in
  Verifier.verify_exn f;
  Alcotest.(check int) "only keep remains" 1 (Ir.instr_count f);
  Alcotest.(check int) "3 deletions recorded" 3 (CM.counts m).delete

let test_adce_keeps_stores () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  %v = mul %x, 3\n\
      \  store %v, %s\n\
      \  %r = load %s\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass Passes.Adce.run f in
  Alcotest.(check int) "nothing removed" 4 (Ir.instr_count f);
  Alcotest.(check int) "semantics" 21 (run_int f [ 7 ])

let test_sccp_removes_unreachable () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %c = icmp eq 1, 1\n\
      \  cbr %c, live, dead\n\
       live:\n\
      \  %a = add %x, 1\n\
      \  br out\n\
       dead:\n\
      \  %b = mul %x, 100\n\
      \  br out\n\
       out:\n\
      \  %r = phi [live: %a], [dead: %b]\n\
      \  ret %r\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Sccp.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "dead block removed" true (Ir.find_block f "dead" = None);
  Alcotest.(check int) "semantics" 6 (run_int f [ 5 ]);
  Alcotest.(check int) "no phi left" 0 (Ir.phi_count f)

let test_sccp_through_phi () =
  (* Constant reaches through a φ whose incomings agree. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, a, b\n\
       a:\n\
      \  br join\n\
       b:\n\
      \  br join\n\
       join:\n\
      \  %v = phi [a: 7], [b: 7]\n\
      \  %r = add %v, %x\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass Passes.Sccp.run f in
  Verifier.verify_exn f;
  Alcotest.(check int) "phi folded to 7" 0 (Ir.phi_count f);
  Alcotest.(check int) "semantics" 10 (run_int f [ 3 ])

let test_loop_canon_inserts_preheader () =
  (* Two outside predecessors branch straight to the header. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  cbr %x, p1, p2\n\
       p1:\n\
      \  br head\n\
       p2:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [p1: 0], [p2: 5], [head: %i2]\n\
      \  %i2 = add %i, 1\n\
      \  %c = icmp slt %i2, 10\n\
      \  cbr %c, head, exit\n\
       exit:\n\
      \  ret %i2\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Loop_canon.run f in
  Verifier.verify_exn f;
  let index = Miniir.Func_index.make f in
  let li = Miniir.Loops.compute (Miniir.Dom.compute index) in
  List.iter
    (fun l ->
      Alcotest.(check bool) "loop has preheader" true (Miniir.Loops.preheader index l <> None))
    li.Miniir.Loops.loops;
  (* The merge φ for the two outside values lives in the preheader now. *)
  Alcotest.(check bool) "added a merge phi" true ((CM.counts m).add >= 1);
  Alcotest.(check int) "semantics x=1" 10 (run_int f [ 1 ]);
  Alcotest.(check int) "semantics x=0" 10 (run_int f [ 0 ])

let test_licm_hoists () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %inv = mul %y, 7\n\
      \  %i2 = add %i, %inv\n\
      \  br head\n\
       exit:\n\
      \  ret %i\n\
       }\n"
  in
  let m = CM.create () in
  let _ = run_pass ~mapper:m Passes.Loop_canon.run f in
  let changed = run_pass ~mapper:m Passes.Licm.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "hoisted" true changed;
  Alcotest.(check bool) "mul left the body" true
    (List.for_all
       (fun (i : Ir.instr) -> match i.rhs with Ir.Binop (Ir.Mul, _, _) -> false | _ -> true)
       (Ir.block_exn f "body").body);
  Alcotest.(check bool) "hoist recorded" true ((CM.counts m).hoist >= 1);
  Alcotest.(check int) "semantics" 14 (run_int f [ 10; 2 ])

let test_licm_respects_memory () =
  (* A load must not be hoisted across the loop's store. *)
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store 0, %s\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %v = load %s\n\
      \  %v2 = add %v, 1\n\
      \  store %v2, %s\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  %r = load %s\n\
      \  ret %r\n\
       }\n"
  in
  let _ = run_pass Passes.Loop_canon.run f in
  let _ = run_pass Passes.Licm.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "load stays in body" true
    (List.exists
       (fun (i : Ir.instr) -> match i.rhs with Ir.Load _ -> true | _ -> false)
       (Ir.block_exn f "body").body);
  Alcotest.(check int) "counting via memory" 6 (run_int f [ 6 ])

let test_licm_no_div_speculation () =
  (* The division block does not dominate the exit (guarded): no hoist. *)
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [latch: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, guard, exit\n\
       guard:\n\
      \  %nz = icmp ne %y, 0\n\
      \  cbr %nz, divb, latch\n\
       divb:\n\
      \  %q = sdiv 100, %y\n\
      \  br latch\n\
       latch:\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  ret %i\n\
       }\n"
  in
  let _ = run_pass Passes.Loop_canon.run f in
  let _ = run_pass Passes.Licm.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "sdiv stays guarded" true
    (List.exists
       (fun (i : Ir.instr) ->
         match i.rhs with Ir.Binop (Ir.Sdiv, _, _) -> true | _ -> false)
       (Ir.block_exn f "divb").body);
  (* y = 0 must still terminate without trapping. *)
  Alcotest.(check int) "no trap with zero divisor" 3 (run_int f [ 3; 0 ])

(* A shift by a register amount may trap (amount outside [0, 62]); the
   shift block does not dominate the exit, so LICM must not hoist it.  With
   n = 0 the loop never runs and the function returns 0. *)
let test_licm_no_shift_speculation () =
  let src amount =
    parse
      (Printf.sprintf
         "func @f(%%x, %%s, %%n) {\n\
          entry:\n\
         \  br head\n\
          head:\n\
         \  %%i = phi [entry: 0], [latch: %%i2]\n\
         \  %%c = icmp slt %%i, %%n\n\
         \  cbr %%c, body, exit\n\
          body:\n\
         \  %%t = shl %%x, %s\n\
         \  %%u = add %%t, %%i\n\
         \  br latch\n\
          latch:\n\
         \  %%i2 = add %%i, 1\n\
         \  %%w = add %%t, %%u\n\
         \  br head\n\
          exit:\n\
         \  ret %%i\n\
          }\n"
         amount)
  in
  let licm f =
    let _ = run_pass Passes.Loop_canon.run f in
    let _ = run_pass Passes.Licm.run f in
    Verifier.verify_exn f;
    List.exists
      (fun (i : Ir.instr) -> match i.rhs with Ir.Binop (Ir.Shl, _, _) -> true | _ -> false)
      (Ir.block_exn f "body").body
  in
  let f = src "%s" in
  Alcotest.(check bool) "shift by a register stays in the loop" true (licm f);
  Alcotest.(check int) "no trap when the loop never runs" 0 (run_int f [ 5; 70; 0 ]);
  Alcotest.(check bool) "shift by an in-range constant is hoisted" false (licm (src "3"))

(* Sinking a possibly-trapping shift into the one arm that uses it would
   skip the trap on the other arm. *)
let test_sink_keeps_trapping_shift () =
  let f =
    parse
      "func @f(%x, %s, %c) {\n\
       entry:\n\
      \  %t = shl %x, %s\n\
      \  cbr %c, a, b\n\
       a:\n\
      \  %u = add %t, 1\n\
      \  ret %u\n\
       b:\n\
      \  ret 0\n\
       }\n"
  in
  Alcotest.(check bool) "nothing sunk" false (run_pass Passes.Sink.run f);
  List.iter
    (fun (module E : Tinyvm.Engine.S) ->
      match E.run f ~args:[ 5; 70; 0 ] with
      | Error (Interp.Shift_out_of_range _) -> ()
      | r -> Alcotest.failf "%s: expected a shift trap, got %a" E.name Interp.pp_result r)
    Tinyvm.Engine.all

let test_sink_moves_into_branch () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %heavy = mul %y, %y\n\
      \  cbr %x, use, skip\n\
       use:\n\
      \  %r = add %heavy, 1\n\
      \  ret %r\n\
       skip:\n\
      \  ret 0\n\
       }\n"
  in
  let m = CM.create () in
  let changed = run_pass ~mapper:m Passes.Sink.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "sunk" true changed;
  Alcotest.(check bool) "mul moved to use block" true
    (List.exists
       (fun (i : Ir.instr) -> match i.rhs with Ir.Binop (Ir.Mul, _, _) -> true | _ -> false)
       (Ir.block_exn f "use").body);
  Alcotest.(check int) "sink recorded" 1 (CM.counts m).sink;
  Alcotest.(check int) "semantics taken" 10 (run_int f [ 1; 3 ]);
  Alcotest.(check int) "semantics skipped" 0 (run_int f [ 0; 3 ])

let test_lcssa_inserts_phi () =
  let f =
    parse
      "func @f(%x) {\n\
       entry:\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  %r = mul %i, 10\n\
      \  ret %r\n\
       }\n"
  in
  let m = CM.create () in
  let changed = run_pass ~mapper:m Passes.Lcssa.run f in
  Verifier.verify_exn f;
  Alcotest.(check bool) "lcssa changed" true changed;
  Alcotest.(check bool) "exit has a phi" true ((Ir.block_exn f "exit").phis <> []);
  Alcotest.(check int) "semantics" 50 (run_int f [ 5 ])

(* -------------------- pipeline + properties -------------------- *)

let test_pipeline_end_to_end () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store 0, %s\n\
      \  %k = add 2, 3\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %inv = mul %y, %k\n\
      \  %cur = load %s\n\
      \  %nxt = add %cur, %inv\n\
      \  store %nxt, %s\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  %r = load %s\n\
      \  ret %r\n\
       }\n"
  in
  let r = P.apply f in
  Alcotest.(check int) "fbase untouched" (run_int f [ 4; 2 ]) (run_int r.fbase [ 4; 2 ]);
  Alcotest.(check int) "fopt equivalent" (run_int f [ 4; 2 ]) (run_int r.fopt [ 4; 2 ]);
  (* The pipeline should have done something: k folded, inv hoisted. *)
  Alcotest.(check bool) "actions recorded" true (CM.actions_in_order r.mapper <> []);
  Alcotest.(check bool) "per-pass stats present" true (List.length r.per_pass >= 8)

let pass_preserves name (pass : P.pass) =
  QCheck.Test.make ~count:60 ~name Gen_ir.arb_func_with_args (fun (f0, args) ->
      let f = P.to_fbase f0 in
      let g = Ir.clone_func f in
      let _ = run_pass pass.run g in
      (match Verifier.verify g with
      | Ok () -> ()
      | Error es ->
          QCheck.Test.fail_reportf "verify after %s: %a@.%s" pass.pname
            (Fmt.list ~sep:Fmt.cut Verifier.pp_error)
            es (Ir.func_to_string g));
      let a = Interp.run ~fuel:1_000_000 f ~args in
      let b = Interp.run ~fuel:1_000_000 g ~args in
      Interp.equal_result a b
      || QCheck.Test.fail_reportf "%s changed behaviour: %a vs %a@.%s" pass.pname
           Interp.pp_result a Interp.pp_result b (Ir.func_to_string g))

let prop_mem2reg_preserves =
  QCheck.Test.make ~count:80 ~name:"mem2reg preserves behaviour" Gen_ir.arb_func_with_args
    (fun (f, args) ->
      let g = P.to_fbase f in
      Interp.equal_result (Interp.run ~fuel:1_000_000 f ~args) (Interp.run ~fuel:1_000_000 g ~args))

let prop_cp = pass_preserves "CP preserves behaviour" P.constprop
let prop_sccp = pass_preserves "SCCP preserves behaviour" P.sccp
let prop_cse = pass_preserves "CSE preserves behaviour" P.cse
let prop_adce = pass_preserves "ADCE preserves behaviour" P.adce
let prop_lc = pass_preserves "LoopCanon preserves behaviour" P.loop_canon
let prop_lcssa = pass_preserves "LCSSA preserves behaviour" P.lcssa
let prop_sink = pass_preserves "Sink preserves behaviour" P.sink

let prop_licm =
  QCheck.Test.make ~count:60 ~name:"LC+LICM preserves behaviour" Gen_ir.arb_func_with_args
    (fun (f0, args) ->
      let f = P.to_fbase f0 in
      let g = Ir.clone_func f in
      let _ = run_pass Passes.Loop_canon.run g in
      let _ = run_pass Passes.Licm.run g in
      (match Verifier.verify g with
      | Ok () -> ()
      | Error es ->
          QCheck.Test.fail_reportf "verify: %a@.%s"
            (Fmt.list ~sep:Fmt.cut Verifier.pp_error)
            es (Ir.func_to_string g));
      Interp.equal_result (Interp.run ~fuel:1_000_000 f ~args)
        (Interp.run ~fuel:1_000_000 g ~args))

let prop_pipeline =
  QCheck.Test.make ~count:60 ~name:"full pipeline preserves behaviour"
    Gen_ir.arb_func_with_args (fun (f0, args) ->
      let f = P.to_fbase f0 in
      let r = P.apply f in
      List.for_all
        (fun args ->
          Interp.equal_result (Interp.run ~fuel:1_000_000 f ~args)
            (Interp.run ~fuel:1_000_000 r.fopt ~args))
        (args :: Gen_ir.sample_args))

(* ---------------- "no change" reports against liveness ------------- *)

module Liveness = Miniir.Liveness

let live_equal (f : Ir.func) (a : Liveness.t) (b : Liveness.t) : bool =
  List.for_all
    (fun (blk : Ir.block) ->
      Liveness.live_out_of a blk.label = Liveness.live_out_of b blk.label)
    f.blocks
  && List.for_all
       (fun (i : Ir.instr) -> Liveness.live_at a i.id = Liveness.live_at b i.id)
       (Ir.all_instrs f)

(* Run the pipeline pass by pass: a pass that reports "no change" must
   leave liveness, computed directly before and after it, unchanged. *)
let prop_unchanged_keeps_liveness =
  QCheck.Test.make ~count:40 ~name:"no-change passes leave liveness equal"
    Gen_ir.arb_func (fun f0 ->
      let f = P.to_fbase f0 in
      let g = Ir.clone_func f in
      let mapper = CM.create () in
      List.iter
        (fun (p : P.pass) ->
          let live_before = Liveness.compute (Miniir.Func_index.make g) in
          let changed = p.run mapper g in
          if (not changed) && not (live_equal g live_before (Liveness.compute (Miniir.Func_index.make g))) then
            QCheck.Test.fail_reportf "%s reported no change but liveness moved@.%s" p.pname
              (Ir.func_to_string g))
        P.standard_pipeline;
      true)

let prop_pipeline_idempotent_ids =
  QCheck.Test.make ~count:40 ~name:"surviving instructions keep their ids"
    Gen_ir.arb_func (fun f0 ->
      let f = P.to_fbase f0 in
      let r = P.apply f in
      let base_ids =
        List.map (fun (i : Ir.instr) -> i.id) (Ir.all_instrs r.fbase)
      in
      let added_ids =
        List.filter_map
          (function CM.Add { id; _ } -> Some id | _ -> None)
          (CM.actions_in_order r.mapper)
      in
      List.for_all
        (fun (i : Ir.instr) -> List.mem i.id base_ids || List.mem i.id added_ids)
        (Ir.all_instrs r.fopt))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "passes",
    [
      t "mem2reg promotes with phis" test_mem2reg_promotes;
      t "mem2reg keeps escaping allocas" test_mem2reg_keeps_escaping;
      t "constprop folds chains" test_constprop_folds;
      t "constprop keeps trapping division" test_constprop_keeps_trapping_div;
      t "CSE dedups expressions" test_cse_dedups;
      t "CSE normalizes commutativity" test_cse_commutative;
      t "CSE load generations" test_cse_load_generations;
      t "ADCE removes dead chains" test_adce_removes_chains;
      t "ADCE keeps stores" test_adce_keeps_stores;
      t "SCCP removes unreachable blocks" test_sccp_removes_unreachable;
      t "SCCP folds through phis" test_sccp_through_phi;
      t "LoopCanon inserts preheaders" test_loop_canon_inserts_preheader;
      t "LICM hoists invariants" test_licm_hoists;
      t "LICM respects memory" test_licm_respects_memory;
      t "LICM does not speculate division" test_licm_no_div_speculation;
      t "LICM does not speculate shifts" test_licm_no_shift_speculation;
      t "Sink moves into branches" test_sink_moves_into_branch;
      t "Sink keeps trapping shifts" test_sink_keeps_trapping_shift;
      t "LCSSA inserts exit phis" test_lcssa_inserts_phi;
      t "pipeline end to end" test_pipeline_end_to_end;
      q prop_mem2reg_preserves;
      q prop_cp;
      q prop_sccp;
      q prop_cse;
      q prop_adce;
      q prop_lc;
      q prop_lcssa;
      q prop_sink;
      q prop_licm;
      q prop_pipeline;
      q prop_pipeline_idempotent_ids;
      q prop_unchanged_keeps_liveness;
    ] )
