(** Typed error taxonomy for guarded OSR transitions (the robustness
    layer).  Every failure mode of the runtime — a source value that cannot
    be read, a reconstructed frame that fails validation, a trap inside the
    compensation code, an exhausted step budget — is a constructor with a
    location payload, so callers (and the CLI) can react per-case instead
    of parsing a [Failure] string.  Each case maps to a distinct, documented
    process exit code via {!exit_code}. *)

type t =
  | Reconstruct_failed of { func : string; at : int; what : string }
      (** Evaluating the transfer sources (or materializing the
          continuation frame) in [func] at point [at] failed. *)
  | Frame_invalid of { func : string; landing : int; missing : string list }
      (** Post-χ validation: registers live into [landing] of the
          continuation [func] left undefined by the reconstruction. *)
  | Guard_trap of { func : string; at : int; trap : Interp.trap }
      (** The guard of the site at [at] trapped while being evaluated. *)
  | Comp_trap of { func : string; at : int; landing : int; trap : Interp.trap }
      (** The compensation code χ of the transition [at] → [landing]
          trapped; the source frame was rolled back. *)
  | Fuel_exhausted of { func : string; steps : int }
      (** The step budget ran out after [steps] executed instructions. *)
  | Engine_mismatch of { expected : string; got : string }
      (** An engine name did not resolve ({!Engine.of_name_exn}). *)
  | No_such_point of { func : string; point : int }
      (** [point] is not an instruction id of [func]. *)
  | Unknown_register of { func : string; reg : string }
      (** A frame access named a register the compiled program has no slot
          for. *)
  | Internal of { what : string }
      (** A broken runtime invariant (the typed replacement for
          [assert false]). *)

exception Error of t

let to_string = function
  | Reconstruct_failed { func; at; what } ->
      Printf.sprintf "frame reconstruction failed in @%s at #%d: %s" func at what
  | Frame_invalid { func; landing; missing } ->
      Printf.sprintf "reconstructed frame invalid for @%s at #%d: undefined live-in %s" func
        landing
        (String.concat ", " missing)
  | Guard_trap { func; at; trap } ->
      Printf.sprintf "guard trapped in @%s at #%d: %s" func at
        (Fmt.str "%a" Interp.pp_trap trap)
  | Comp_trap { func; at; landing; trap } ->
      Printf.sprintf "compensation code trapped on @%s #%d -> #%d: %s" func at landing
        (Fmt.str "%a" Interp.pp_trap trap)
  | Fuel_exhausted { func; steps } ->
      Printf.sprintf "fuel exhausted in @%s after %d steps" func steps
  | Engine_mismatch { expected; got } ->
      Printf.sprintf "unknown engine %S (expected %s)" got expected
  | No_such_point { func; point } ->
      Printf.sprintf "#%d is not a program point of @%s" point func
  | Unknown_register { func; reg } ->
      Printf.sprintf "no slot for register %%%s in compiled @%s" reg func
  | Internal { what } -> Printf.sprintf "internal invariant broken: %s" what

(* Distinct, documented CLI exit codes (see README "Exit codes"). *)
let exit_code = function
  | Reconstruct_failed _ -> 10
  | Frame_invalid _ -> 11
  | Guard_trap _ -> 12
  | Comp_trap _ -> 13
  | Fuel_exhausted _ -> 14
  | Engine_mismatch _ -> 15
  | No_such_point _ -> 16
  | Unknown_register _ -> 17
  | Internal _ -> 18

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Osr_error: " ^ to_string e)
    | _ -> None)
