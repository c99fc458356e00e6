(** Symbolic debugging of optimized code — the Section 7 feasibility study
    as an interactive scenario.

    {v dune exec examples/debug_optimized.exe v}

    A "debugger" sets a breakpoint in the optimized code.  Several user
    variables are endangered there (their values were folded, hoisted or
    deleted by the optimizer).  The example stops the optimized execution
    at the breakpoint, runs [reconstruct]'s recovery plan against the live
    optimized frame, and prints the source-level values the debugger should
    show — then validates them against an unoptimized run stopped at the
    same source location. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module R = Osrir.Reconstruct_ir
module Interp = Tinyvm.Interp
module E = Debuginfo.Endangered

let args = [ 4; 555 ]

let () =
  let entry = Option.get (Corpus.Kernels.find "sjeng") in
  let fbase, dbg = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  let report =
    E.analyze_function ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper ~user_vars:dbg.user_vars
      ~source_points:dbg.source_points
  in
  (* Pick the source location with the most endangered-but-recoverable
     variables. *)
  let score (p : E.point_report) =
    List.length (List.filter (fun v -> v.E.endangered && v.E.recoverable_avail) p.vars)
  in
  let bp =
    List.fold_left
      (fun best p -> if score p > score best then p else best)
      (List.hd report.points) report.points
  in
  Printf.printf "breakpoint: source location #%d, optimized location #%d\n" bp.base_point
    bp.opt_point;
  Printf.printf "user variables in scope: %s\n\n"
    (String.concat ", " (List.map (fun v -> v.E.var) bp.vars));

  (* Stop the optimized execution at the breakpoint. *)
  let machine = Interp.create r.fopt ~args in
  (match Interp.run_to_point machine ~point:bp.opt_point with
  | None -> failwith "breakpoint not reached on this input"
  | Some _ -> ());
  (* Reference: unoptimized execution stopped at the same source point,
     same dynamic arrival. *)
  let ref_machine = Interp.create r.fbase ~args in
  (match Interp.run_to_point ref_machine ~point:bp.base_point with
  | None -> failwith "source point not reached in fbase"
  | Some _ -> ());

  let bwd = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base in
  List.iter
    (fun (v : E.var_status) ->
      let expected = Hashtbl.find_opt ref_machine.frame v.carrier in
      let shown =
        if not v.endangered then
          (* Straight from the optimized frame (possibly via an alias). *)
          List.find_map
            (fun (cand : Ctx.cand) ->
              match cand.cv with
              | Ir.Reg y -> Hashtbl.find_opt machine.frame y
              | Ir.Const c -> Some c
              | Ir.Undef -> None)
            (Ctx.candidates bwd v.carrier)
        else begin
          (* Run the recovery plan for just this variable. *)
          match
            E.recovery_plan bwd R.Avail ~opt_point:bp.opt_point ~base_point:bp.base_point
              v.carrier
          with
          | None -> None
          | Some plan -> (
              match
                R.eval_plan plan ~src_frame:machine.frame ~memory:machine.memory
              with
              | Ok env -> Hashtbl.find_opt env v.carrier
              | Error _ -> None)
        end
      in
      Printf.printf "  %-6s %-12s expected=%-12s debugger shows=%-12s %s\n" v.var
        (if v.endangered then "endangered" else "live")
        (match expected with Some n -> string_of_int n | None -> "?")
        (match shown with Some n -> string_of_int n | None -> "<lost>")
        (match (expected, shown) with
        | Some a, Some b when a = b -> "OK"
        | Some _, None -> "unrecoverable"
        | None, _ -> "(untracked in reference)"
        | _ -> "MISMATCH"))
    bp.vars
