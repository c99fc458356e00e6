(** Differential tests of the compiled slot-register engine against the
    reference interpreter: byte-equal observables (return value, event
    trace, step count) and identical trap payloads over the whole corpus,
    randomized functions, trapping programs, and OSR transitions fired at
    every feasible point on both engines. *)

module Ir = Miniir.Ir
module Interp = Tinyvm.Interp
module Engine = Tinyvm.Engine
module Compiled = Tinyvm.Engine.Compiled
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module Rt = Osrir.Osr_runtime

let parse = Miniir.Ir_parser.parse_func

(* Strict observable equality: both engines must agree on the return
   value, the full event trace, the step count, and — unlike
   [Interp.equal_result] — the exact trap payload. *)
let check_equal ctx (a : (Interp.outcome, Interp.trap) result)
    (b : (Interp.outcome, Interp.trap) result) : unit =
  match (a, b) with
  | Ok x, Ok y ->
      Alcotest.(check int) (ctx ^ ": ret") x.Interp.ret y.Interp.ret;
      Alcotest.(check int) (ctx ^ ": steps") x.Interp.steps y.Interp.steps;
      Alcotest.(check bool)
        (ctx ^ ": events") true
        (List.equal Interp.equal_event x.Interp.events y.Interp.events)
  | Error ta, Error tb ->
      Alcotest.(check bool)
        (Fmt.str "%s: identical traps (%a vs %a)" ctx Interp.pp_trap ta Interp.pp_trap tb)
        true (ta = tb)
  | Ok o, Error t ->
      Alcotest.failf "%s: reference returned (%a) but compiled trapped (%a)" ctx
        Interp.pp_result (Ok o) Interp.pp_trap t
  | Error t, Ok o ->
      Alcotest.failf "%s: reference trapped (%a) but compiled returned (%a)" ctx
        Interp.pp_trap t Interp.pp_result (Ok o)

let differential ?(fuel = 20_000_000) (ctx : string) (f : Ir.func) (args : int list) : unit =
  let reference = Interp.run ~fuel f ~args in
  let compiled = Compiled.run ~fuel f ~args in
  check_equal ctx reference compiled

(* -------------------- corpus -------------------- *)

let test_corpus_differential () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let r = P.apply fbase in
      differential (e.benchmark ^ " fbase") r.P.fbase e.default_args;
      differential (e.benchmark ^ " fopt") r.P.fopt e.default_args)
    Corpus.Kernels.all

(* -------------------- trapping programs -------------------- *)

let test_traps_differential () =
  let cases =
    [
      ( "div by zero",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %a = add %x, 1\n\
        \  %q = sdiv %a, %y\n\
        \  ret %q\n\
         }\n",
        [ 5; 0 ] );
      ( "rem by zero",
        "func @f(%x, %y) {\nentry:\n  %q = srem %x, %y\n  ret %q\n}\n",
        [ 7; 0 ] );
      ( "undef read",
        "func @f(%x, %y) {\nentry:\n  %a = add undef, %x\n  ret %a\n}\n",
        [ 1; 2 ] );
      ( "undef through select",
        "func @f(%x, %y) {\nentry:\n  %a = select %x, undef, %y\n  ret %a\n}\n",
        [ 1; 2 ] );
      ( "missing block",
        "func @f(%x, %y) {\nentry:\n  %c = icmp sgt %x, 0\n  cbr %c, nowhere, ok\nok:\n  ret %y\n}\n",
        [ 5; 9 ] );
      ( "missing block not taken",
        "func @f(%x, %y) {\nentry:\n  %c = icmp sgt %x, 0\n  cbr %c, nowhere, ok\nok:\n  ret %y\n}\n",
        [ -5; 9 ] );
      ( "unreachable",
        "func @f(%x, %y) {\nentry:\n  %c = icmp sgt %x, 0\n  cbr %c, dead, ok\ndead:\n  unreachable\nok:\n  ret %y\n}\n",
        [ 5; 9 ] );
      ( "unknown intrinsic",
        "func @f(%x, %y) {\nentry:\n  %v = call @mystery(%x)\n  ret %v\n}\n",
        [ 1; 2 ] );
      ( "undef arg before unknown intrinsic",
        "func @f(%x, %y) {\nentry:\n  %v = call @mystery(undef)\n  ret %v\n}\n",
        [ 1; 2 ] );
      ( "phi undef incoming poisons lazily",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %c = icmp sgt %x, 0\n\
        \  cbr %c, a, b\n\
         a:\n\
        \  br j\n\
         b:\n\
        \  br j\n\
         j:\n\
        \  %m = phi [a: undef], [b: %y]\n\
        \  %r = add %m, 1\n\
        \  ret %r\n\
         }\n",
        [ 5; 9 ] );
      ( "phi undef incoming, other edge fine",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %c = icmp sgt %x, 0\n\
        \  cbr %c, a, b\n\
         a:\n\
        \  br j\n\
         b:\n\
        \  br j\n\
         j:\n\
        \  %m = phi [a: undef], [b: %y]\n\
        \  %r = add %m, 1\n\
        \  ret %r\n\
         }\n",
        [ -5; 9 ] );
      ( "phi swap cycle",
        (* The classic parallel-move swap: both φs read the other's old
           value on the back edge. *)
        "func @f(%x, %y) {\n\
         entry:\n\
        \  br head\n\
         head:\n\
        \  %a = phi [entry: %x], [body: %b]\n\
        \  %b = phi [entry: %y], [body: %a]\n\
        \  %i = phi [entry: 0], [body: %i2]\n\
        \  %c = icmp slt %i, 5\n\
        \  cbr %c, body, exit\n\
         body:\n\
        \  %i2 = add %i, 1\n\
        \  br head\n\
         exit:\n\
        \  %r = sub %a, %b\n\
        \  ret %r\n\
         }\n",
        [ 31; 7 ] );
      ( "phi rotation cycle",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  %z = add %x, %y\n\
        \  br head\n\
         head:\n\
        \  %a = phi [entry: %x], [body: %b]\n\
        \  %b = phi [entry: %y], [body: %c3]\n\
        \  %c3 = phi [entry: %z], [body: %a]\n\
        \  %i = phi [entry: 0], [body: %i2]\n\
        \  %cc = icmp slt %i, 7\n\
        \  cbr %cc, body, exit\n\
         body:\n\
        \  %i2 = add %i, 1\n\
        \  br head\n\
         exit:\n\
        \  %s1 = mul %a, 100\n\
        \  %s2 = mul %b, 10\n\
        \  %s3 = add %s1, %s2\n\
        \  %s4 = add %s3, %c3\n\
        \  ret %s4\n\
         }\n",
        [ 1; 2 ] );
      ( "events before trap",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  call @emit(%x)\n\
        \  call @emit(%y)\n\
        \  %q = sdiv %x, %y\n\
        \  ret %q\n\
         }\n",
        [ 3; 0 ] );
    ]
  in
  List.iter (fun (name, src, args) -> differential name (parse src) args) cases

(* -------------------- the int operand encoding -------------------- *)

(* Operands are ints: slots from 0, undef at -1, constants below it
   through a per-program pool.  Constants at the edges of the encoding
   (-1 and -2, the two ends of [int]) and a repeated constant, as
   instruction operands and as φ sources; undef operands and φ incomings;
   and a φ swap whose sources mix constants and slots. *)
let test_operand_encoding_differential () =
  let lo = string_of_int min_int and hi = string_of_int max_int in
  let cases =
    [
      ( "edge constants as operands",
        Printf.sprintf
          "func @f(%%x, %%y) {\n\
           entry:\n\
          \  %%a = add %%x, -1\n\
          \  %%b = mul %%a, -2\n\
          \  %%c = add %%b, -1\n\
          \  %%d = xor %%c, %s\n\
          \  %%e = and %%d, %s\n\
          \  %%g = icmp slt %s, %%e\n\
          \  %%h = select %%g, -2, %s\n\
          \  call @emit(-1, %%h, %s)\n\
          \  %%r = add %%h, %%e\n\
          \  ret %%r\n\
           }\n"
          lo hi lo hi lo,
        [ 5; 3 ] );
      ( "edge constants as phi sources",
        Printf.sprintf
          "func @f(%%x, %%y) {\n\
           entry:\n\
          \  %%c = icmp sgt %%x, 0\n\
          \  cbr %%c, a, b\n\
           a:\n\
          \  br j\n\
           b:\n\
          \  br j\n\
           j:\n\
          \  %%m = phi [a: -1], [b: %s]\n\
          \  %%n = phi [a: %s], [b: -2]\n\
          \  %%o = phi [a: -1], [b: -1]\n\
          \  call @emit(%%m, %%n, %%o)\n\
          \  ret %%o\n\
           }\n"
          lo hi,
        [ 5; 3 ] );
      ( "edge constants as phi sources, other edge",
        Printf.sprintf
          "func @f(%%x, %%y) {\n\
           entry:\n\
          \  %%c = icmp sgt %%x, 0\n\
          \  cbr %%c, a, b\n\
           a:\n\
          \  br j\n\
           b:\n\
          \  br j\n\
           j:\n\
          \  %%m = phi [a: -1], [b: %s]\n\
          \  %%n = phi [a: %s], [b: -2]\n\
          \  call @emit(%%m, %%n)\n\
          \  ret %%n\n\
           }\n"
          lo hi,
        [ -5; 3 ] );
      ( "undef operand of a call",
        "func @f(%x, %y) {\nentry:\n  call @emit(%x, undef)\n  ret %y\n}\n",
        [ 1; 2 ] );
      ( "undef returned", "func @f(%x, %y) {\nentry:\n  ret undef\n}\n", [ 1; 2 ] );
      ( "undef condition",
        "func @f(%x, %y) {\nentry:\n  cbr undef, a, b\na:\n  ret %x\nb:\n  ret %y\n}\n",
        [ 1; 2 ] );
      ( "undef phi incoming, never read",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  br head\n\
         head:\n\
        \  %u = phi [entry: undef], [body: %i2]\n\
        \  %i = phi [entry: 0], [body: %i2]\n\
        \  %c = icmp slt %i, 3\n\
        \  cbr %c, body, exit\n\
         body:\n\
        \  %i2 = add %i, 1\n\
        \  br head\n\
         exit:\n\
        \  ret %u\n\
         }\n",
        [ 1; 2 ] );
      ( "undef phi incoming, read",
        "func @f(%x, %y) {\n\
         entry:\n\
        \  br head\n\
         head:\n\
        \  %u = phi [entry: undef], [body: %i2]\n\
        \  %i = phi [entry: 0], [body: %i2]\n\
        \  %s = add %u, 1\n\
        \  %c = icmp slt %i, 3\n\
        \  cbr %c, body, exit\n\
         body:\n\
        \  %i2 = add %i, 1\n\
        \  br head\n\
         exit:\n\
        \  ret %s\n\
         }\n",
        [ 1; 2 ] );
      ( "phi swap mixing constants and slots",
        (* On the back edge %a and %b swap (slots), %k and %l take
           constants and %u goes undef: one buffered move list. *)
        Printf.sprintf
          "func @f(%%x, %%y) {\n\
           entry:\n\
          \  br head\n\
           head:\n\
          \  %%a = phi [entry: -1], [body: %%b]\n\
          \  %%b = phi [entry: %%y], [body: %%a]\n\
          \  %%k = phi [entry: %%x], [body: %s]\n\
          \  %%l = phi [entry: %s], [body: -2]\n\
          \  %%u = phi [entry: 7], [body: undef]\n\
          \  %%i = phi [entry: 0], [body: %%i2]\n\
          \  call @emit(%%a, %%b, %%k, %%l)\n\
          \  %%c = icmp slt %%i, 3\n\
          \  cbr %%c, body, exit\n\
           body:\n\
          \  %%i2 = add %%i, 1\n\
          \  br head\n\
           exit:\n\
          \  %%r = sub %%a, %%b\n\
          \  ret %%r\n\
           }\n"
          lo hi,
        [ 31; 7 ] );
    ]
  in
  List.iter (fun (name, src, args) -> differential name (parse src) args) cases

(* -------------------- randomized -------------------- *)

let prop_engines_agree =
  QCheck.Test.make ~count:120 ~name:"compiled engine ≡ reference on random functions"
    Gen_ir.arb_func_with_args (fun (f0, args) ->
      let fbase = P.to_fbase f0 in
      let r = P.apply fbase in
      List.for_all
        (fun f ->
          let reference = Interp.run ~fuel:1_000_000 f ~args in
          let compiled = Compiled.run ~fuel:1_000_000 f ~args in
          let ok =
            match (reference, compiled) with
            | Ok x, Ok y ->
                x.Interp.ret = y.Interp.ret && x.Interp.steps = y.Interp.steps
                && List.equal Interp.equal_event x.Interp.events y.Interp.events
            | Error ta, Error tb -> ta = tb
            | Ok _, Error _ | Error _, Ok _ -> false
          in
          ok
          || QCheck.Test.fail_reportf "engines diverge: %a vs %a@.%s" Interp.pp_result
               reference Interp.pp_result compiled (Ir.func_to_string f))
        [ r.P.fbase; r.P.fopt ])

(* -------------------- lockstep bisimulation -------------------- *)

(* Step both machines in lockstep and compare [current_point] at every
   step — much stronger than end-state equality: the engines must agree on
   the entire control path. *)
let test_lockstep_points () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let r = P.apply fbase in
      let mr = Interp.create r.P.fbase ~args:e.default_args in
      let mc = Compiled.create r.P.fbase ~args:e.default_args in
      let budget = ref 2_000_000 in
      let continue = ref true in
      while !continue && !budget > 0 do
        decr budget;
        let pr = Interp.current_point mr and pc = Compiled.current_point mc in
        if pr <> pc then
          Alcotest.failf "%s: lockstep diverged at step %d: ref %d vs compiled %d" e.benchmark
            mr.Interp.steps pr pc;
        (* [next_instr_id] is the same point as an option. *)
        let want = if pr < 0 then None else Some pr in
        if Interp.next_instr_id mr <> want || Compiled.next_instr_id mc <> want then
          Alcotest.failf "%s: next_instr_id disagrees with current_point %d at step %d"
            e.benchmark pr mr.Interp.steps;
        match (Interp.step mr, Compiled.step mc) with
        | Interp.Running, Interp.Running -> ()
        | sr, sc ->
            (* Both stopped: the point reads -1 on both. *)
            if Interp.current_point mr <> -1 || Compiled.current_point mc <> -1 then
              Alcotest.failf "%s: stopped machine has point ref %d / compiled %d" e.benchmark
                (Interp.current_point mr) (Compiled.current_point mc);
            (match (sr, sc) with
            | Interp.Returned a, Interp.Returned b ->
                Alcotest.(check int) (e.benchmark ^ ": lockstep ret") a b
            | Interp.Trapped ta, Interp.Trapped tb ->
                Alcotest.(check bool) (e.benchmark ^ ": lockstep trap") true (ta = tb)
            | _ -> Alcotest.failf "%s: lockstep status divergence" e.benchmark);
            continue := false
      done)
    (List.filteri (fun i _ -> i < 4) Corpus.Kernels.all)

(* The loop between armed points ([Interp.Run]'s, over each engine's step
   core): the compiled and the reference engine stop at the same points
   after the same steps, and end the same way, with every fifth point
   armed, a point disarmed after its second arrival, and a fuel budget
   that runs out part of the way. *)
let test_run_to_armed () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let r = P.apply fbase in
      List.iter
        (fun (f, fuel) ->
          let run create run_to_armed step steps =
            let m = create f in
            let armed = Bytes.make f.Ir.next_id '\000' in
            for p = 0 to f.Ir.next_id - 1 do
              if p mod 5 = 0 then Bytes.set armed p '\001'
            done;
            let hits = Hashtbl.create 16 and trace = ref [] in
            let rec go () =
              match run_to_armed m ~armed with
              | -1 -> List.rev !trace
              | p ->
                  trace := (p, steps m) :: !trace;
                  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt hits p) in
                  Hashtbl.replace hits p n;
                  if n = 2 then Bytes.set armed p '\000';
                  (match step m with Interp.Running -> () | _ -> ());
                  go ()
            in
            (go (), m)
          in
          let tr, mr =
            run
              (fun f -> Interp.create ~fuel f ~args:e.default_args)
              Interp.run_to_armed Interp.step (fun m -> m.Interp.steps)
          in
          let tc, mc =
            run
              (fun f -> Compiled.create ~fuel f ~args:e.default_args)
              Compiled.run_to_armed Compiled.step Compiled.steps
          in
          let what = Printf.sprintf "%s/%s fuel %d" e.benchmark f.Ir.fname fuel in
          Alcotest.(check bool) (what ^ ": some point armed and reached") true (tr <> []);
          Alcotest.(check (list (pair int int))) (what ^ ": stops and steps") tr tc;
          Alcotest.(check int) (what ^ ": point after the run") (-1) (Compiled.current_point mc);
          Alcotest.(check bool)
            (what ^ ": same end") true
            (match (mr.Interp.status, Compiled.status mc) with
            | Interp.Returned a, Interp.Returned b -> a = b
            | Interp.Trapped a, Interp.Trapped b -> a = b
            | _ -> false))
        [ (r.P.fbase, max_int); (r.P.fopt, max_int); (r.P.fopt, 500) ])
    Corpus.Kernels.all

(* At a mid-execution pause point, the compiled frame (read back through
   the slot table) must match the reference hashtable frame on every
   register the reference has defined. *)
let test_paused_frames_agree () =
  let e = List.hd Corpus.Kernels.all in
  let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
  let r = P.apply fbase in
  let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper Ctx.Base_to_opt in
  let points = Ctx.source_points ctx in
  let checked = ref 0 in
  List.iteri
    (fun i point ->
      if i mod 7 = 0 then
        let mr = Interp.create r.P.fbase ~args:e.default_args in
        let mc = Compiled.create r.P.fbase ~args:e.default_args in
        match (Interp.run_to_point mr ~point ~skip:1, Compiled.run_to_point mc ~point ~skip:1)
        with
        | Some mr, Some mc ->
            incr checked;
            Alcotest.(check int)
              (Printf.sprintf "steps at pause #%d" point)
              mr.Interp.steps (Compiled.steps mc);
            Hashtbl.iter
              (fun reg v ->
                Alcotest.(check (option int))
                  (Printf.sprintf "%%%s at pause #%d" reg point)
                  (Some v) (Compiled.read_reg mc reg))
              mr.Interp.frame;
            (* Clamping a paused machine's budget must not overflow. *)
            check_equal
              (Printf.sprintf "resume from pause #%d with fuel max_int - 1" point)
              (Interp.run_machine ~fuel:(max_int - 1) mr)
              (Compiled.run_machine ~fuel:(max_int - 1) mc)
        | None, None -> ()
        | Some _, None | None, Some _ ->
            Alcotest.failf "engines disagree on reachability of #%d" point)
    points;
  Alcotest.(check bool) "checked some pause points" true (!checked > 0)

(* -------------------- OSR transitions on both engines -------------------- *)

(* Fire an OSR transition at every feasible point, in both directions, on
   both engines: all four runs must be observationally equal, and the two
   engines byte-equal (ret, events, steps, traps). *)
let osr_differential (fbase : Ir.func) (args : int list) : unit =
  let r = P.apply fbase in
  List.iter
    (fun (dir, src, target) ->
      let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper dir in
      let summary = F.analyze ctx in
      List.iter
        (fun (rep : F.point_report) ->
          match (rep.F.landing, rep.F.avail_plan) with
          | Some landing, Some plan ->
              let on_ref, _ =
                Rt.Reference.run_transition_full ~fuel:1_000_000 ~src ~args ~at:rep.F.point
                  ~target ~landing plan
              in
              let on_compiled, _ =
                Rt.Compiled.run_transition_full ~fuel:1_000_000 ~src ~args ~at:rep.F.point
                  ~target ~landing plan
              in
              check_equal
                (Printf.sprintf "OSR %d→%d" rep.F.point landing)
                on_ref on_compiled;
              (* and the transition must still be sound wrt. plain runs *)
              let reference = Interp.run ~fuel:1_000_000 src ~args in
              Alcotest.(check bool)
                (Printf.sprintf "OSR %d→%d sound" rep.F.point landing)
                true
                (Interp.equal_result reference on_compiled)
          | _ -> ())
        summary.F.reports)
    [ (Ctx.Base_to_opt, r.P.fbase, r.P.fopt); (Ctx.Opt_to_base, r.P.fopt, r.P.fbase) ]

let test_osr_differential_example () =
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %k = add 2, 3\n\
      \  %dead = mul %x, 99\n\
      \  br head\n\
       head:\n\
      \  %i = phi [entry: 0], [body: %i2]\n\
      \  %acc = phi [entry: 0], [body: %acc2]\n\
      \  %c = icmp slt %i, %x\n\
      \  cbr %c, body, exit\n\
       body:\n\
      \  %inv = mul %y, %k\n\
      \  %acc2 = add %acc, %inv\n\
      \  %i2 = add %i, 1\n\
      \  br head\n\
       exit:\n\
      \  ret %acc\n\
       }\n"
  in
  osr_differential f [ 6; 3 ]

let test_osr_differential_corpus () =
  (* Two kernels keep the quadratic (points × runs) cost in check; the
     randomized property below covers broader shapes. *)
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      osr_differential fbase e.default_args)
    (List.filteri (fun i _ -> i < 2) Corpus.Kernels.all)

let prop_osr_engines_agree =
  QCheck.Test.make ~count:10 ~name:"OSR transitions byte-equal across engines"
    Gen_ir.arb_func (fun f0 ->
      let fbase = P.to_fbase f0 in
      let r = P.apply fbase in
      let args = [ 3; -2 ] in
      List.for_all
        (fun (dir, src, target) ->
          let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper dir in
          let summary = F.analyze ctx in
          List.for_all
            (fun (rep : F.point_report) ->
              match (rep.F.landing, rep.F.avail_plan) with
              | Some landing, Some plan -> (
                  let on_ref, _ =
                    Rt.Reference.run_transition_full ~fuel:1_000_000 ~src ~args
                      ~at:rep.F.point ~target ~landing plan
                  in
                  let on_compiled, _ =
                    Rt.Compiled.run_transition_full ~fuel:1_000_000 ~src ~args
                      ~at:rep.F.point ~target ~landing plan
                  in
                  match (on_ref, on_compiled) with
                  | Ok x, Ok y ->
                      x.Interp.ret = y.Interp.ret && x.Interp.steps = y.Interp.steps
                      && List.equal Interp.equal_event x.Interp.events y.Interp.events
                      || QCheck.Test.fail_reportf "OSR %d→%d diverged: %a vs %a" rep.F.point
                           landing Interp.pp_result on_ref Interp.pp_result on_compiled
                  | Error ta, Error tb -> ta = tb
                  | Ok _, Error _ | Error _, Ok _ ->
                      QCheck.Test.fail_reportf "OSR %d→%d: one engine trapped: %a vs %a"
                        rep.F.point landing Interp.pp_result on_ref Interp.pp_result
                        on_compiled)
              | _ -> true)
            summary.F.reports)
        [ (Ctx.Base_to_opt, r.P.fbase, r.P.fopt); (Ctx.Opt_to_base, r.P.fopt, r.P.fbase) ])

(* -------------------- armed (non-firing) sites -------------------- *)

let test_armed_sites_no_fire () =
  (* Arming every source point with a never-firing guard must not change
     any observable on either engine. *)
  let e = List.hd Corpus.Kernels.all in
  let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
  let r = P.apply fbase in
  let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper Ctx.Base_to_opt in
  let cont =
    match
      List.find_map
        (fun (rep : F.point_report) ->
          match (rep.F.landing, rep.F.avail_plan) with
          | Some landing, Some plan -> Some (Osrir.Contfun.generate r.P.fopt ~landing plan)
          | _ -> None)
        (F.analyze ctx).F.reports
    with
    | Some c -> c
    | None -> Alcotest.fail "no feasible point to build a continuation from"
  in
  let points = Ctx.source_points ctx in
  let plain = Interp.run r.P.fbase ~args:e.default_args in
  let mr = Interp.create r.P.fbase ~args:e.default_args in
  let armed_ref =
    fst
      (Rt.Reference.run_with_osr mr
         (List.map (fun p -> { Rt.at = p; guard = (fun _ -> false); cont }) points))
  in
  let mc = Compiled.create r.P.fbase ~args:e.default_args in
  let armed_compiled =
    fst
      (Rt.Compiled.run_with_osr mc
         (List.map (fun p -> { Rt.at = p; guard = (fun _ -> false); cont }) points))
  in
  check_equal "armed ref vs plain" plain armed_ref;
  check_equal "armed compiled vs plain" plain armed_compiled

(* -------------------- compiled once per continuation -------------------- *)

(* The first feasible point of [dir] that a run on [args] reaches, and a
   continuation for it. *)
let reached_continuation (r : P.apply_result) dir ~args =
  let src, target =
    match dir with
    | Ctx.Base_to_opt -> (r.P.fbase, r.P.fopt)
    | Ctx.Opt_to_base -> (r.P.fopt, r.P.fbase)
  in
  let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper dir in
  List.find_map
    (fun (rep : F.point_report) ->
      match (rep.F.landing, rep.F.avail_plan) with
      | Some landing, Some plan
        when Interp.run_to_point (Interp.create src ~args) ~point:rep.F.point <> None ->
          Some (src, rep.F.point, Osrir.Contfun.generate target ~landing plan)
      | _ -> None)
    (F.analyze ctx).F.reports
  |> Option.get

(* A continuation fired twice with a live sink is compiled on the first
   firing only on the compiled engine, and never on the reference engine;
   every firing commits, is observably the plain run, and equals the
   reference engine's first firing exactly (steps included).  Two domains
   firing a fresh continuation at once agree with it too. *)
let test_continuation_compiled_once () =
  let e = List.hd Corpus.Kernels.all in
  let args = e.default_args in
  let r = P.apply (fst (Corpus.Dsl.to_fbase e.kernel)) in
  let src, at, cont = reached_continuation r Ctx.Base_to_opt ~args in
  let plain = Interp.run ~fuel:1_000_000 src ~args in
  let compiles () = Tinyvm.Compile.stat_compiles.Telemetry.value in
  let fire_twice name cont create run_with_osr =
    List.init 2 (fun i ->
        let sink = Telemetry.create () in
        let m = create sink in
        let before = compiles () in
        let result, osr = run_with_osr m [ { Rt.at; guard = (fun _ -> true); cont } ] in
        let ctx = Printf.sprintf "%s, firing %d" name (i + 1) in
        Alcotest.(check bool) (ctx ^ ": committed") true (osr.Rt.transition <> None);
        Alcotest.(check bool) (ctx ^ ": equals the plain run") true (Interp.equal_result plain result);
        (compiles () - before, result))
  in
  let on_ref =
    fire_twice "reference" cont
      (fun sink -> Interp.create ~telemetry:sink src ~args)
      (Rt.Reference.run_with_osr ~fuel:1_000_000)
  in
  Alcotest.(check (list int)) "reference engine: compiles per firing" [ 0; 0 ] (List.map fst on_ref);
  Alcotest.(check bool)
    "the reference engine leaves the program unbuilt" true
    (Atomic.get cont.Osrir.Contfun.compiled.Tinyvm.Compile.program = None);
  let want = snd (List.hd on_ref) in
  (* The source machine's program is compiled beforehand, so the only
     compile a firing can count is the continuation's. *)
  let src_prog = Tinyvm.Compile.compile src in
  let on_compiled =
    fire_twice "compiled" cont
      (fun sink -> Compiled.of_program ~telemetry:sink src_prog ~args)
      (Rt.Compiled.run_with_osr ~fuel:1_000_000)
  in
  Alcotest.(check (list int)) "compiled engine: compiles per firing" [ 1; 0 ] (List.map fst on_compiled);
  List.iteri (fun i (_, got) -> check_equal (Printf.sprintf "firing %d, engines" (i + 1)) want got)
    (on_ref @ on_compiled);
  let _, _, fresh = reached_continuation r Ctx.Base_to_opt ~args in
  let fire_on_domain () =
    Domain.spawn (fun () ->
        fst
          (Rt.Compiled.run_with_osr ~fuel:1_000_000 (Compiled.of_program src_prog ~args)
             [ { Rt.at; guard = (fun _ -> true); cont = fresh } ]))
  in
  let d1 = fire_on_domain () and d2 = fire_on_domain () in
  check_equal "first domain" want (Domain.join d1);
  check_equal "second domain" want (Domain.join d2)

(* -------------------- frame access by name -------------------- *)

(* Every register a function names, and its parameters. *)
let registers (f : Ir.func) : Ir.reg list =
  let names = ref f.Ir.params in
  let note = function Ir.Reg r -> names := r :: !names | Ir.Const _ | Ir.Undef -> () in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          Option.iter (fun r -> names := r :: !names) i.Ir.result;
          Ir.iter_rhs_operands note i.Ir.rhs)
        (Ir.block_instrs b);
      Ir.iter_term_operands note b.Ir.term)
    f.Ir.blocks;
  List.sort_uniq String.compare !names

(* [read_reg], [write_reg] and [clear_reg] on the compiled engine agree
   with the reference engine on every register of the kernels' [fbase],
   [fopt] and continuation functions: paused after a few steps, every
   register reads the same; after writing every register, and again after
   clearing every other one, every register reads the same, and the two
   machines then run to the same outcome.  An unknown name reads [None]
   and cannot be written. *)
let test_frame_access_by_name () =
  let module R = Engine.Reference in
  let check_function ctx (f : Ir.func) ~args =
    let mr = R.create ~fuel:5_000 f ~args and mc = Compiled.create ~fuel:5_000 f ~args in
    let rec pause k =
      if k > 0 && R.status mr = Interp.Running then (
        ignore (R.step mr : Interp.status);
        ignore (Compiled.step mc : Interp.status);
        pause (k - 1))
    in
    pause 25;
    let regs = registers f in
    let agree what =
      List.iter
        (fun reg ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: %%%s %s" ctx reg what)
            (R.read_reg mr reg) (Compiled.read_reg mc reg))
        regs
    in
    agree "paused";
    List.iteri
      (fun i reg ->
        R.write_reg mr reg (i - 7);
        Compiled.write_reg mc reg (i - 7))
      regs;
    agree "written";
    List.iteri
      (fun i reg ->
        if i mod 2 = 0 then begin
          R.clear_reg mr reg;
          Compiled.clear_reg mc reg
        end)
      regs;
    agree "cleared";
    check_equal (ctx ^ ": run after frame surgery") (R.run_machine mr) (Compiled.run_machine mc);
    Alcotest.(check (option int)) (ctx ^ ": unknown name") None (Compiled.read_reg mc "no$such");
    Compiled.clear_reg mc "no$such";
    match Compiled.write_reg mc "no$such" 1 with
    | () -> Alcotest.failf "%s: wrote an unknown register" ctx
    | exception Tinyvm.Osr_error.Error (Tinyvm.Osr_error.Unknown_register { reg; _ }) ->
        Alcotest.(check string) (ctx ^ ": unknown register named") "no$such" reg
  in
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let r = P.apply (fst (Corpus.Dsl.to_fbase e.kernel)) in
      let args = e.default_args in
      check_function (e.benchmark ^ " fbase") r.P.fbase ~args;
      check_function (e.benchmark ^ " fopt") r.P.fopt ~args;
      List.iter
        (fun dir ->
          let _, _, cont = reached_continuation r dir ~args in
          let fto = cont.Osrir.Contfun.fto in
          check_function (e.benchmark ^ " " ^ fto.Ir.fname) fto
            ~args:(List.map (fun _ -> 3) fto.Ir.params))
        [ Ctx.Base_to_opt; Ctx.Opt_to_base ])
    Corpus.Kernels.all

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "engine",
    [
      t "corpus differential (fbase + fopt)" test_corpus_differential;
      t "trapping programs differential" test_traps_differential;
      t "int operand encoding differential" test_operand_encoding_differential;
      t "lockstep program points" test_lockstep_points;
      t "armed-point loop agrees" test_run_to_armed;
      t "paused frames agree" test_paused_frames_agree;
      t "OSR differential on the example" test_osr_differential_example;
      t "OSR differential on corpus kernels" test_osr_differential_corpus;
      t "armed sites do not perturb" test_armed_sites_no_fire;
      t "a continuation is compiled once" test_continuation_compiled_once;
      t "frame access by name agrees" test_frame_access_by_name;
      q prop_engines_agree;
      q prop_osr_engines_agree;
    ] )
