(** Tests for the Section 7 machinery: source-variable tracking, the
    endangered-variable analysis, and — most importantly — a dynamic oracle
    checking that every value the analysis claims recoverable really is
    recovered correctly at a live breakpoint.  Source-variable tracking is
    also compared point by point against the old fixpoint kept in
    {!Ref_source_vars}. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Interp = Tinyvm.Interp
module Ctx = Osrir.Osr_ctx
module R = Osrir.Reconstruct_ir
module E = Debuginfo.Endangered
module SV = Debuginfo.Source_vars

(* A small kernel with clear variable structure. *)
let kernel : Corpus.Dsl.kernel =
  let open Corpus.Dsl in
  {
    kname = "dbg_demo";
    params = [ "x"; "y" ];
    arrays = [];
    locals = [ "total"; "step" ];
    body =
      [
        Set ("step", Bin (Miniir.Ir.Mul, Param "y", Const 3));
        Set ("total", Const 0);
        For
          {
            i = "i";
            below = Param "x";
            body = [ Set ("total", Bin (Miniir.Ir.Add, Slot "total", Slot "step")) ];
          };
      ];
    ret = Slot "total";
  }

let test_families () =
  let fbase, dbg = Corpus.Dsl.to_fbase kernel in
  let sv = SV.analyze (Miniir.Func_index.make fbase) ~user_vars:dbg.user_vars in
  List.iter
    (fun u ->
      Alcotest.(check bool) (u ^ " has a family") true (SV.family_of fbase u <> []))
    [ "total"; "step"; "i" ];
  (* At the return, total must be tracked. *)
  let ret_point = (List.hd (List.rev fbase.Ir.blocks)).Ir.term_id in
  match List.assoc_opt "total" (SV.tracked_at sv ~point:ret_point) with
  | Some carrier ->
      Alcotest.(check bool) "total carried by its family" true
        (List.mem carrier (SV.family_of fbase "total"))
  | None -> Alcotest.fail "total untracked at return"

let test_tracked_progression () =
  let fbase, dbg = Corpus.Dsl.to_fbase kernel in
  let sv = SV.analyze (Miniir.Func_index.make fbase) ~user_vars:dbg.user_vars in
  (* Early in the function fewer variables are tracked than at the end. *)
  let first = List.hd dbg.source_points in
  let last = List.hd (List.rev dbg.source_points) in
  let n_at p = List.length (SV.tracked_at sv ~point:p) in
  Alcotest.(check bool) "tracking grows" true (n_at first <= n_at last)

let test_analysis_shape () =
  let fbase, dbg = Corpus.Dsl.to_fbase kernel in
  let r = P.apply fbase in
  let rep =
    E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper ~user_vars:dbg.user_vars
      ~source_points:dbg.source_points
  in
  Alcotest.(check bool) "some points analyzed" true (rep.points <> []);
  List.iter
    (fun (p : E.point_report) ->
      List.iter
        (fun (v : E.var_status) ->
          (* recoverable_live implies recoverable_avail; non-endangered is
             always both. *)
          if v.recoverable_live && not v.recoverable_avail then
            Alcotest.failf "%s: live-recoverable but not avail-recoverable" v.var;
          if (not v.endangered) && not v.recoverable_live then
            Alcotest.failf "%s: directly reported but not recoverable" v.var)
        p.vars)
    rep.points

(* The dynamic oracle: stop fbase and fopt at corresponding breakpoints
   (same first dynamic arrival), evaluate every avail recovery plan against
   the live fopt frame, and compare with the carrier's value in the fbase
   frame. *)
let check_recovery_dynamically (kernel : Corpus.Dsl.kernel) (args : int list) =
  let fbase, dbg = Corpus.Dsl.to_fbase kernel in
  let r = P.apply fbase in
  let rep =
    E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper ~user_vars:dbg.user_vars
      ~source_points:dbg.source_points
  in
  let bwd = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base in
  let checked = ref 0 in
  List.iter
    (fun (p : E.point_report) ->
      let opt_machine = Interp.create r.fopt ~args in
      let base_machine = Interp.create r.fbase ~args in
      match
        ( Interp.run_to_point ~fuel:5_000_000 opt_machine ~point:p.opt_point,
          Interp.run_to_point ~fuel:5_000_000 base_machine ~point:p.base_point )
      with
      | Some om, Some bm ->
          List.iter
            (fun (v : E.var_status) ->
              if v.endangered && v.recoverable_avail then
                match
                  E.recovery_plan bwd R.Avail ~opt_point:p.opt_point ~base_point:p.base_point
                    v.carrier
                with
                | None -> Alcotest.failf "%s claimed recoverable but plan fails" v.var
                | Some plan -> (
                    match R.eval_plan plan ~src_frame:om.frame ~memory:om.memory with
                    | Error reg -> Alcotest.failf "plan for %s stuck on %%%s" v.var reg
                    | Ok env -> (
                        match
                          (Hashtbl.find_opt env v.carrier, Hashtbl.find_opt bm.frame v.carrier)
                        with
                        | Some got, Some want ->
                            incr checked;
                            if got <> want then
                              Alcotest.failf
                                "recovered %s (carrier %s) = %d but reference has %d at point %d"
                                v.var v.carrier got want p.base_point
                        | _, None ->
                            Alcotest.failf "carrier %s of %s unbound at reached point %d"
                              v.carrier v.var p.base_point
                        | None, _ -> Alcotest.failf "plan did not bind %s" v.carrier)))
            p.vars
      | _, _ -> ()  (* breakpoint not reached on this input *))
    rep.points;
  !checked

let test_recovery_dynamic_demo () =
  let n = check_recovery_dynamically kernel [ 5; 4 ] in
  Alcotest.(check bool) "checked some recoveries" true (n > 0)

let test_recovery_dynamic_kernels () =
  List.iter
    (fun name ->
      let e = Option.get (Corpus.Kernels.find name) in
      ignore (check_recovery_dynamically e.kernel e.default_args : int))
    [ "fhourstones"; "soplex"; "dcraw" ]

(* Regression for the loop-escape re-execution bug: a value computed inside
   a loop from the induction variable, dead in the optimized code after the
   loop, must NOT be "recovered" by re-executing its definition with the
   post-loop induction value. *)
let test_no_loop_escape_reexecution () =
  let open Corpus.Dsl in
  let k =
    {
      kname = "loop_escape";
      params = [ "n"; "y" ];
      arrays = [];
      locals = [ "probe"; "acc" ];
      body =
        [
          Set ("acc", Const 0);
          For
            {
              i = "i";
              below = Param "n";
              body =
                [
                  (* probe depends on the induction variable; acc keeps it
                     live in fbase, but fopt can fold the chain so probe's
                     carrier dies. *)
                  Set ("probe", Bin (Miniir.Ir.Mul, Slot "i", Const 10));
                  Set ("acc", Bin (Miniir.Ir.Add, Slot "acc", Slot "probe"));
                ];
            };
        ];
      ret = Slot "acc";
    }
  in
  let n = check_recovery_dynamically k [ 6; 2 ] in
  (* The oracle itself is the assertion: any unsound recovery fails above. *)
  Alcotest.(check bool) "oracle ran" true (n >= 0)

let test_study_aggregates () =
  let prof = Option.get (Corpus.Spec_c.find "sjeng") in
  let reports =
    List.map
      (fun (sf : Corpus.Spec_c.study_func) ->
        let r = P.apply sf.fbase in
        E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper
          ~user_vars:sf.dbg.user_vars ~source_points:sf.dbg.source_points)
      (Corpus.Spec_c.functions_of prof)
  in
  List.iter
    (fun rep ->
      let f = E.affected_fraction rep in
      Alcotest.(check bool) "fraction in [0,1]" true (f >= 0.0 && f <= 1.0);
      (match E.recoverability rep `Avail with
      | Some x -> Alcotest.(check bool) "ratio in [0,1]" true (x >= 0.0 && x <= 1.0)
      | None -> ());
      (* live recoverability never exceeds avail recoverability *)
      match (E.recoverability rep `Live, E.recoverability rep `Avail) with
      | Some l, Some a ->
          Alcotest.(check bool) "live <= avail" true (l <= a +. 1e-9)
      | _ -> ())
    reports

(* ------------------------------------------------------------------ *)
(* Differential gate: tracking against the old fixpoint                *)
(* ------------------------------------------------------------------ *)

(* [tracked_at] of the one-pass analysis and of {!Ref_source_vars} at every
   instruction id, every terminator id and one absent id. *)
let check_tracking ~(what : string) (fbase : Ir.func) ~(user_vars : string list) : unit =
  let want = Ref_source_vars.analyze fbase ~user_vars in
  let got = SV.analyze (Miniir.Func_index.make fbase) ~user_vars in
  let show l = String.concat ", " (List.map (fun (u, r) -> u ^ "=" ^ r) l) in
  List.iter
    (fun point ->
      let a = Ref_source_vars.tracked_at want ~point and b = SV.tracked_at got ~point in
      if a <> b then Alcotest.failf "%s: tracked at %d: [%s] vs [%s]" what point (show a) (show b))
    ((fbase.Ir.next_id :: List.map (fun (i : Ir.instr) -> i.id) (Ir.all_instrs fbase))
    @ List.map (fun (b : Ir.block) -> b.term_id) fbase.Ir.blocks)

let check_kernel_tracking ~what (k : Corpus.Dsl.kernel) =
  let fbase, (dbg : Corpus.Dsl.debug_info) = Corpus.Dsl.to_fbase k in
  check_tracking ~what fbase ~user_vars:dbg.user_vars

let test_tracking_kernels () =
  List.iter
    (fun (e : Corpus.Kernels.entry) -> check_kernel_tracking ~what:e.benchmark e.kernel)
    Corpus.Kernels.all

let test_tracking_spec_c () =
  List.iter (fun (what, k) -> check_kernel_tracking ~what k) (Suite_front.spec_c_sample ())

(* Study functions past the end of each profile's corpus. *)
let prop_tracking_generated =
  let profiles = Array.of_list Corpus.Spec_c.profiles in
  let gen =
    QCheck.Gen.(
      pair (int_bound (Array.length profiles - 1)) (int_bound 100_000)
      |> map (fun (p, i) -> (profiles.(p), profiles.(p).Corpus.Spec_c.total_scaled + i)))
  in
  let print ((p : Corpus.Spec_c.profile), i) = Printf.sprintf "%s #%d" p.bench i in
  QCheck.Test.make ~count:100 ~name:"tracking identical on generated study functions"
    (QCheck.make ~print gen) (fun (prof, i) ->
      let sf = Corpus.Spec_c.gen_function prof i in
      check_tracking ~what:(print (prof, i)) sf.fbase ~user_vars:sf.dbg.user_vars;
      true)

(* Hand-built shapes the DSL does not produce: an unreachable block (one
   with a self-loop), a self-loop, a merge whose φ was pruned, an empty
   block whose only point is its terminator, registers in two families by
   prefix ([a.def.def.1] is in [a] and in [a.def]), and an entry block
   with a predecessor. *)
let shapes =
  [
    ( "func @unreach(%x) {\n\
       entry:\n\
      \  %u.def.1 = add %x, 1\n\
      \  br exit\n\
       dead:\n\
      \  %u.def.2 = add %x, 2\n\
      \  %v.def.1 = add %x, 3\n\
      \  br exit\n\
       spin:\n\
      \  %w.def.1 = add %x, 4\n\
      \  br spin\n\
       exit:\n\
      \  %r = add %u.def.1, 0\n\
      \  ret %r\n\
       }\n",
      [ "u"; "v"; "w" ] );
    ( "func @selfloop(%n) {\n\
       entry:\n\
      \  %u.def.1 = add %n, 0\n\
      \  br loop\n\
       loop:\n\
      \  %u.slot.phi.2 = phi [entry: %u.def.1], [loop: %u.def.3]\n\
      \  %v.def.1 = mul %u.slot.phi.2, 2\n\
      \  %u.def.3 = add %u.slot.phi.2, 1\n\
      \  %c = icmp slt %u.def.3, %n\n\
      \  cbr %c, loop, exit\n\
       exit:\n\
      \  ret %u.def.3\n\
       }\n",
      [ "u"; "v" ] );
    ( "func @pruned(%x) {\n\
       entry:\n\
      \  %a.def.def.1 = add %x, 0\n\
      \  cbr %x, l, r\n\
       l:\n\
      \  %u.def.1 = add %x, 1\n\
      \  %v.def.1 = add %x, 2\n\
      \  br j\n\
       r:\n\
      \  %u.def.2 = add %x, 3\n\
      \  br j\n\
       j:\n\
      \  br k\n\
       k:\n\
      \  %w.def.1 = add %x, 4\n\
      \  ret %w.def.1\n\
       }\n",
      [ "a"; "a.def"; "u"; "v"; "w" ] );
    ( "func @reentry(%n) {\n\
       entry:\n\
      \  %c = icmp slt %n, 0\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %u.def.1 = add %n, 1\n\
      \  br entry\n\
       exit:\n\
      \  ret 0\n\
       }\n",
      [ "u" ] );
  ]

let test_tracking_shapes () =
  List.iter
    (fun (src, user_vars) ->
      let f = Miniir.Ir_parser.parse_func src in
      check_tracking ~what:f.Ir.fname f ~user_vars)
    shapes

(* ------------------------------------------------------------------ *)
(* Tracked carriers are defined on every path                           *)
(* ------------------------------------------------------------------ *)

(* Every carrier tracked at a body instruction or a terminator is defined
   by an instruction that dominates it. *)
let check_carriers_dominate ~(what : string) (fbase : Ir.func) ~(user_vars : string list) =
  let index = Miniir.Func_index.make fbase in
  let sv = SV.analyze index ~user_vars in
  let dom = Miniir.Dom.compute index in
  let def_id = Hashtbl.create 64 in
  List.iter
    (fun (i : Ir.instr) -> Option.iter (fun r -> Hashtbl.replace def_id r i.id) i.result)
    (Ir.all_instrs fbase);
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun point ->
          List.iter
            (fun (u, c) ->
              if
                not
                  (Miniir.Dom.instr_dominates dom ~def_id:(Hashtbl.find def_id c)
                     ~use_id:point)
              then Alcotest.failf "%s: carrier %s of %s does not dominate point %d" what c u point)
            (SV.tracked_at sv ~point))
        (List.map (fun (i : Ir.instr) -> i.id) b.body @ [ b.term_id ]))
    fbase.Ir.blocks

let test_carriers_dominate () =
  let check (what, k) =
    let fbase, (dbg : Corpus.Dsl.debug_info) = Corpus.Dsl.to_fbase k in
    check_carriers_dominate ~what fbase ~user_vars:dbg.user_vars
  in
  List.iter (fun (e : Corpus.Kernels.entry) -> check (e.benchmark, e.kernel)) Corpus.Kernels.all;
  List.iter check (Suite_front.spec_c_sample ())

let untracked_at ~what (fbase : Ir.func) (dbg : Corpus.Dsl.debug_info) u point =
  let sv = SV.analyze (Miniir.Func_index.make fbase) ~user_vars:dbg.user_vars in
  match List.assoc_opt u (SV.tracked_at sv ~point) with
  | None -> ()
  | Some c -> Alcotest.failf "%s: %s tracked as %s at point %d" what u c point

(* [t] is set in one arm of an [if] and dead after the merge, so mem2reg
   prunes its φ: the other arm still holds the initial value. *)
let test_untracked_after_one_arm_if () =
  let open Corpus.Dsl in
  let k =
    {
      kname = "one_arm";
      params = [ "x"; "y" ];
      arrays = [];
      locals = [ "t"; "acc" ];
      body =
        [
          Set ("acc", Param "y");
          If (Cmp (Miniir.Ir.Sgt, Param "x", Const 0), [ Set ("t", Bin (Miniir.Ir.Mul, Param "x", Const 3)) ], []);
          Set ("acc", Bin (Miniir.Ir.Add, Slot "acc", Param "x"));
        ];
      ret = Slot "acc";
    }
  in
  let fbase, dbg = to_fbase k in
  let last = List.hd (List.rev dbg.source_points) in
  let ret = (List.hd (List.rev fbase.Ir.blocks)).Ir.term_id in
  untracked_at ~what:"after the merge" fbase dbg "t" last;
  untracked_at ~what:"at the return" fbase dbg "t" ret

(* [probe] is set only inside the loop body and dead at the header: on
   entry to the loop it holds the initial value, not the body's. *)
let test_untracked_at_loop_header () =
  let open Corpus.Dsl in
  let k =
    {
      kname = "loop_only";
      params = [ "n"; "y" ];
      arrays = [];
      locals = [ "probe"; "acc" ];
      body =
        [
          Set ("acc", Param "y");
          For
            {
              i = "i";
              below = Param "n";
              body =
                [
                  Set ("probe", Bin (Miniir.Ir.Mul, Slot "i", Const 10));
                  Set ("acc", Bin (Miniir.Ir.Add, Slot "acc", Slot "probe"));
                ];
            };
        ];
      ret = Slot "acc";
    }
  in
  let fbase, dbg = to_fbase k in
  let header =
    List.find
      (fun (b : Ir.block) ->
        List.exists
          (fun (i : Ir.instr) ->
            match i.result with Some r -> String.starts_with ~prefix:"i.slot.phi." r | None -> false)
          b.phis)
      fbase.Ir.blocks
  in
  untracked_at ~what:"at the loop header" fbase dbg "probe" header.term_id

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let s name f = Alcotest.test_case name `Slow f in
  ( "debuginfo",
    [
      t "variable families" test_families;
      t "tracking progression" test_tracked_progression;
      t "analysis shape invariants" test_analysis_shape;
      t "dynamic recovery oracle (demo kernel)" test_recovery_dynamic_demo;
      s "dynamic recovery oracle (corpus kernels)" test_recovery_dynamic_kernels;
      t "no loop-escape re-execution" test_no_loop_escape_reexecution;
      s "study aggregates" test_study_aggregates;
      t "tracking identical: kernels" test_tracking_kernels;
      t "tracking identical: Spec_c sample" test_tracking_spec_c;
      t "tracking identical: hand-built shapes" test_tracking_shapes;
      QCheck_alcotest.to_alcotest prop_tracking_generated;
      t "tracked carriers dominate their points" test_carriers_dominate;
      t "untracked after a one-arm if" test_untracked_after_one_arm_if;
      t "untracked at a loop header" test_untracked_at_loop_header;
    ] )
