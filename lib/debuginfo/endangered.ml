(** The Section 7 analysis: when the user sets a breakpoint in optimized
    code, which source variables hold inconsistent or lost values
    ({e endangered}), and how many can [reconstruct] recover, in the [live]
    and [avail] variants.

    For every source-location point [l] of [fbase], we find the
    corresponding breakpoint location [l'] in [fopt] (the OSR landing
    correspondence), and for each user variable tracked at [l] with
    carrying value [x]:
    - u is {e reported directly} when some equivalent of [x] is live in the
      optimized frame at [l'];
    - otherwise u is {e endangered}; [reconstruct] (deoptimizing direction)
      may still rebuild [x] from the live frame ([live]) or from values
      kept artificially alive ([avail], contributing to the keep set of
      Table 5). *)

module Ir = Miniir.Ir
module Ctx = Osrir.Osr_ctx
module R = Osrir.Reconstruct_ir

type var_status = {
  var : string;
  carrier : Ir.reg;  (** the fbase value holding the variable *)
  endangered : bool;
  recoverable_live : bool;
  recoverable_avail : bool;
  keep : Ir.reg list;  (** fopt values kept alive for the avail recovery *)
}

type point_report = {
  base_point : int;  (** source location (fbase instruction id) *)
  opt_point : int;  (** breakpoint location in fopt *)
  vars : var_status list;
}

type func_report = {
  fname : string;
  base_size : int;  (** |fbase|, the weight used by Table 4 and Figure 9 *)
  optimized : bool;  (** did the pipeline change the function? *)
  points : point_report list;
}

(** The recovery plan for one endangered carrier: evaluate it against the
    live optimized frame (a stopped {!Tinyvm.Interp.machine}) to obtain the
    source-level value — what a debugger integration would execute at the
    breakpoint.  [ctx] must be the deoptimizing ([Opt_to_base]) context. *)
let recovery_plan (ctx : Ctx.t) (variant : R.variant) ~(opt_point : int) ~(base_point : int)
    (x : Ir.reg) : R.plan option =
  let st = R.fresh_state ctx ~src_point:opt_point ~landing:base_point in
  match R.build variant st x with
  | _ -> Some (R.plan_of_state st)
  | exception R.Undef _ -> None

let analyze_function ~(fbase : Ir.func) ~(fopt : Ir.func) ~(mapper : Passes.Code_mapper.t)
    ~(user_vars : string list) ~(source_points : int list) : func_report =
  (* Breakpoint correspondence: fbase → fopt (where does the breakpoint
     land in optimized code), value recovery: fopt → fbase. *)
  let fwd, bwd = Ctx.make_pair ~fbase ~fopt ~mapper () in
  let sv = Source_vars.analyze fwd.src.index ~user_vars in
  let st = R.fresh_state bwd ~src_point:(-1) ~landing:(-1) in
  let points =
    List.filter_map
      (fun base_point ->
        match Ctx.landing_point fwd base_point with
        | None -> None
        | Some opt_point ->
            let env = Ctx.point_env bwd opt_point in
            R.retarget st ~src_point:opt_point ~landing:base_point;
            let vars =
              List.map
                (fun (var, carrier) ->
                  (* Directly reported: an equivalent of the carrier is
                     live in the optimized frame at the breakpoint. *)
                  let direct =
                    List.exists
                      (fun (c : Ctx.cand) ->
                        (match c.cv with Ir.Reg _ -> true | _ -> false)
                        && Ctx.cand_available bwd env c
                        && Ctx.cand_live env c)
                      (Ctx.candidates bwd carrier)
                  in
                  if direct then
                    {
                      var;
                      carrier;
                      endangered = false;
                      recoverable_live = true;
                      recoverable_avail = true;
                      keep = [];
                    }
                  else
                    let live, avail = R.both st [ carrier ] in
                    {
                      var;
                      carrier;
                      endangered = true;
                      recoverable_live = Result.is_ok live;
                      recoverable_avail = Result.is_ok avail;
                      keep = (match avail with Ok p -> p.keep | Error _ -> []);
                    })
                (Source_vars.tracked_at sv ~point:base_point)
            in
            Some { base_point; opt_point; vars })
      source_points
  in
  {
    fname = fbase.Ir.fname;
    base_size = Ir.instr_count fbase;
    optimized = Passes.Code_mapper.actions_in_order mapper <> [];
    points;
  }

(* ------------------------------------------------------------------ *)
(* Aggregation (Tables 4, 5 and Figure 9)                               *)
(* ------------------------------------------------------------------ *)

let endangered_vars (p : point_report) = List.filter (fun v -> v.endangered) p.vars

(** Does the function contain at least one endangered variable occurrence? *)
let is_endangered (r : func_report) =
  List.exists (fun p -> endangered_vars p <> []) r.points

(** Fraction of source points with at least one endangered variable. *)
let affected_fraction (r : func_report) : float =
  match r.points with
  | [] -> 0.0
  | ps ->
      float_of_int (List.length (List.filter (fun p -> endangered_vars p <> []) ps))
      /. float_of_int (List.length ps)

(** Endangered-variable counts at affected points. *)
let endangered_counts (r : func_report) : int list =
  List.filter_map
    (fun p ->
      match List.length (endangered_vars p) with 0 -> None | n -> Some n)
    r.points

(** Average recoverability ratio of a function: mean over affected points
    of (recovered / endangered). *)
let recoverability (r : func_report) (which : [ `Live | `Avail ]) : float option =
  let ratios =
    List.filter_map
      (fun p ->
        match endangered_vars p with
        | [] -> None
        | evs ->
            let ok =
              List.length
                (List.filter
                   (fun v ->
                     match which with
                     | `Live -> v.recoverable_live
                     | `Avail -> v.recoverable_avail)
                   evs)
            in
            Some (float_of_int ok /. float_of_int (List.length evs)))
      r.points
  in
  match ratios with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios))

(** Union of the keep sets across all points — the values a debugger would
    preserve via invisible breakpoints (Table 5). *)
let keep_set (r : func_report) : Ir.reg list =
  List.sort_uniq String.compare
    (List.concat_map (fun p -> List.concat_map (fun v -> v.keep) p.vars) r.points)
