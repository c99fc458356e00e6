(** JIT tiering: the classic optimizing-OSR scenario (Section 1).

    {v dune exec examples/jit_tiering.exe v}

    A "VM" starts executing the baseline version of a hot kernel and counts
    interpreter steps.  When the loop gets hot (an OSR guard on the dynamic
    arrival count at the loop header), execution transfers mid-loop into the
    optimized version through a generated continuation function — without
    losing the partially accumulated state — and finishes there. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir
module Interp = Tinyvm.Interp
module Rt = Osrir.Osr_runtime
module Compiled = Tinyvm.Engine.Compiled

let hot_threshold = 20

let () =
  let entry = Option.get (Corpus.Kernels.find "hmmer") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  Printf.printf "kernel: %s  (|fbase| = %d, |fopt| = %d)\n" entry.kernel.kname
    (Ir.instr_count r.fbase) (Ir.instr_count r.fopt);

  (* Arm an OSR site at the inner-loop accumulator update: fire once the
     point has been hit [hot_threshold] times. *)
  let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
  let s = F.analyze ctx in
  let site_point, landing, plan =
    (* Use the most frequently executed feasible point: probe candidates
       dynamically and pick the one with the most arrivals. *)
    let feasible =
      List.filter_map
        (fun (rep : F.point_report) ->
          match (rep.landing, rep.avail_plan) with
          | Some l, Some p -> Some (rep.point, l, p)
          | _ -> None)
        s.reports
    in
    let arrivals (point, _, _) =
      let m = Interp.create r.fbase ~args:entry.default_args in
      let count = ref 0 in
      let rec go budget =
        if budget = 0 then ()
        else begin
          (match Interp.next_instr_id m with
          | Some id when id = point -> incr count
          | _ -> ());
          match Interp.step m with Running -> go (budget - 1) | _ -> ()
        end
      in
      go 200_000;
      !count
    in
    match
      List.stable_sort (fun a b -> compare (arrivals b) (arrivals a)) feasible
    with
    | best :: _ -> best
    | [] -> failwith "no feasible OSR point"
  in
  Printf.printf "armed OSR site at #%d (lands at #%d, |c| = %d, keep = {%s})\n" site_point
    landing (R.comp_size plan) (String.concat ", " plan.keep);

  (* Drive the machine by hand so we can report the tier switch. *)
  let cont = Osrir.Contfun.generate r.fopt ~landing plan in
  let machine = Compiled.create r.fbase ~args:entry.default_args in
  let hits = ref 0 in
  let guard (_ : Compiled.machine) =
    incr hits;
    !hits > hot_threshold
  in
  let result, osr =
    Rt.Compiled.run_with_osr machine [ { Rt.at = site_point; guard; cont } ]
  in
  (match osr.Rt.transition with
  | Some t ->
      Printf.printf "loop got hot after %d arrivals: OSR fired at #%d\n" hot_threshold
        t.fired_at;
      Printf.printf "continuation entry ran %d compensation instructions\n"
        t.comp_entry_instrs
  | None -> print_endline "OSR never fired");
  Fmt.pr "tiered result   : %a@." Interp.pp_result result;
  Fmt.pr "baseline result : %a@." Interp.pp_result (Interp.run r.fbase ~args:entry.default_args);
  Fmt.pr "optimized result: %a@." Interp.pp_result (Interp.run r.fopt ~args:entry.default_args)
