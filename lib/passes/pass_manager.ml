open Import

(** The pass manager: implements the paper's [apply] (Sections 4.2 and
    5.4) at the IR level — clone the function, run an optimization
    pipeline over the clone with a shared CodeMapper recording every
    primitive action, verify SSA after each pass, and hand back everything
    the OSR layer needs.

    A pass that reads analyses (dominators, loops) builds them from one
    {!Func_index} of the function when its run starts; nothing is cached
    across passes. *)

type pass = {
  pname : string;
  run : Code_mapper.t -> Ir.func -> bool;
      (** transform the function in place, recording every primitive
          action in the mapper; [true] iff the function changed *)
}

let constprop : pass = { pname = "CP"; run = Constprop.run }
let sccp : pass = { pname = "SCCP"; run = Sccp.run }
let cse : pass = { pname = "CSE"; run = Cse.run }
let adce : pass = { pname = "ADCE"; run = Adce.run }
let loop_canon : pass = { pname = "LC"; run = Loop_canon.run }
let lcssa : pass = { pname = "LCSSA"; run = Lcssa.run }
let licm : pass = { pname = "LICM"; run = Licm.run }
let sink : pass = { pname = "Sink"; run = Sink.run }

(** The optimization pipeline of Section 5.4 (ADCE, CP, CSE, LICM, SCCP,
    Sink, plus the LC and LCSSA utility passes LICM requires). *)
let standard_pipeline : pass list =
  [ constprop; sccp; cse; loop_canon; lcssa; licm; sink; adce ]

type apply_result = {
  fbase : Ir.func;  (** the input function, untouched *)
  fopt : Ir.func;  (** the optimized clone *)
  mapper : Code_mapper.t;  (** action history across the whole pipeline *)
  per_pass : (string * Code_mapper.counts) list;  (** actions recorded by each pass *)
}

(* Sandboxing counter: passes undone after raising, a failed post-pass
   verification or a false "no change" report. *)
let stat_rolled_back =
  Telemetry.counter ~group:"pass" "rolled_back"
    ~desc:"passes rolled back after failing post-pass verification or misreporting no change"

(* Overwrite [dst]'s mutable body with [src]'s (a pristine clone taken
   before the pass ran); [fname] and [params] are immutable and no pass
   changes them. *)
let restore_func (dst : Ir.func) ~(from_ : Ir.func) : unit =
  dst.Ir.blocks <- from_.Ir.blocks;
  dst.Ir.next_id <- from_.Ir.next_id;
  dst.Ir.next_reg <- from_.Ir.next_reg

(** Clone [f] and optimize the clone with [pipeline], recording actions.
    [f] must pass the verifier, so every pass gets a function whose ids
    are in [\[0, next_id)] (ADCE sizes its marks by [next_id]).  Each
    pass runs transactionally: a pass that raises (any exception but
    [Out_of_memory] and [Sys.Break]), whose output fails the SSA
    verifier, or that reports no change but changed the function, is
    rolled back — the function {e and} the mapper history return to their
    pre-pass state, a remark names the reason, [pass.rolled_back] is
    bumped, and the pipeline continues with the remaining passes — so a
    miscompiling pass degrades to a no-op instead of killing the
    compilation.  The verifier runs after every pass except one that left
    the function equal to its pre-pass clone ({!Ir.equal_func}) after an
    earlier verification in this call accepted it: the change flag is
    never trusted, the comparison is.  With a live [telemetry] sink each
    pass runs under a span named after it (the [-time-passes] rows), the
    verifier under ["verify"], and the mapper statistics accumulate. *)
let apply ?(pipeline = standard_pipeline) ?(telemetry = Telemetry.null) (f : Ir.func) :
    apply_result =
  let fopt = Ir.clone_func f in
  let mapper = Code_mapper.create ~telemetry () in
  let per_pass = ref [] in
  (* Has a verification in this call accepted [fopt] as it is now? *)
  let verified = ref false in
  List.iter
    (fun (p : pass) ->
      let pre_ir = Ir.clone_func fopt and pre_mapper = Code_mapper.snapshot mapper in
      let roll_back reason =
        restore_func fopt ~from_:pre_ir;
        Code_mapper.restore mapper pre_mapper;
        Telemetry.bump telemetry stat_rolled_back;
        Telemetry.remark telemetry ~pass:p.pname ~func:fopt.Ir.fname (fun () ->
            "pass rolled back: " ^ reason)
      in
      (match Telemetry.with_span telemetry ~cat:"pass" p.pname (fun () -> p.run mapper fopt) with
      | exception ((Out_of_memory | Sys.Break) as e) -> raise e
      | exception e -> roll_back ("raised " ^ Printexc.to_string e)
      | changed ->
          if (not changed) && not (Ir.equal_func fopt pre_ir) then
            roll_back "reported no change but changed the function"
          else if changed || not !verified then begin
            match
              Telemetry.with_span telemetry ~cat:"verify" "verify" (fun () ->
                  Verifier.verify fopt)
            with
            | Ok () -> verified := true
            | Error es ->
                roll_back
                  ("post-pass verification failed: "
                  ^ Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Verifier.pp_error) es)
          end);
      (* Counted after a possible rollback, so a rolled-back pass reports
         zero actions. *)
      per_pass := (p.pname, Code_mapper.counts_since mapper pre_mapper) :: !per_pass)
    pipeline;
  { fbase = f; fopt; mapper; per_pass = List.rev !per_pass }

(** Run mem2reg in place on a freshly built alloca-form function to obtain
    the paper's [fbase] (clang -O0 + mem2reg). *)
let to_fbase (f : Ir.func) : Ir.func =
  let f' = Ir.clone_func f in
  let _ : bool = Mem2reg.run f' in
  Verifier.verify_exn f';
  f'
