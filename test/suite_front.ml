(** Differential gate for the front half of the JIT path: [Dsl.to_fbase]
    (lower, mem2reg, verify, source-point remap) and the pass pipeline
    (LCSSA and the post-pass verifier) against the copies of the code they
    replaced, kept in {!Ref_front}.  Every observable must be byte-identical:
    the printed [fbase] and [fopt], the source points, the CodeMapper action
    list, the per-pass counts, the remarks, every counter and the span
    counts.  The one
    expected difference is the [verify] count: the pass manager skips the
    verifier after a pass that left the function unchanged, and the test
    counts those skips itself (see [new_apply]).

    The verifier is also checked on seeded mutations of pipeline outputs,
    one per error class: its error list must equal the reference copy's,
    except for the duplicate-incoming φ error the reference cannot see.
    A second, randomized gate compares it with the copy of the verifier it
    replaced, kept in {!Ref_miniir}, on mutants of eight kinds. *)

module T = Telemetry
module Ir = Miniir.Ir
module Dom = Miniir.Dom
module V = Miniir.Verifier
module P = Passes.Pass_manager
module CM = Passes.Code_mapper
module R = Ref_front

(* -------------------- observables -------------------- *)

let action_to_string : CM.action -> string = function
  | CM.Add { id; block } -> Printf.sprintf "add #%d %s" id block
  | CM.Delete { id } -> Printf.sprintf "delete #%d" id
  | CM.Hoist { id; from_block; to_block } -> Printf.sprintf "hoist #%d %s->%s" id from_block to_block
  | CM.Sink { id; from_block; to_block } -> Printf.sprintf "sink #%d %s->%s" id from_block to_block
  | CM.Replace { old_value; new_value; inst } ->
      Printf.sprintf "replace %s->%s%s" (Ir.value_to_string old_value)
        (Ir.value_to_string new_value)
        (match inst with Some i -> Printf.sprintf " in #%d" i | None -> "")

let counts_to_string (name, (c : CM.counts)) =
  Printf.sprintf "%s add=%d delete=%d hoist=%d sink=%d replace=%d" name c.add c.delete c.hoist
    c.sink c.replace

type observed = {
  fbase : string;
  points : string;
  fopt : string;
  actions : string;
  per_pass : string;
  remarks : string;
  counters : string;
  spans : (string * int) list;  (** span name, count *)
  skipped : int;  (** verifications [apply] skipped, as [new_apply] counts them *)
}

let verify_skips = ref 0

(* Build fbase with [to_fbase], run [apply] on it under a live sink, and
   render everything the caller can see.  Counters are process-global, so
   they are reset first and read before the other version runs. *)
let observe ~(to_fbase : unit -> Ir.func * int list)
    ~(apply : telemetry:T.sink -> Ir.func -> P.apply_result) : observed =
  T.reset_counters ();
  verify_skips := 0;
  let tel = T.create () in
  let fbase, points = to_fbase () in
  let r = apply ~telemetry:tel fbase in
  let lines f l = String.concat "\n" (List.map f l) in
  {
    fbase = Ir.func_to_string fbase;
    points = lines string_of_int points;
    fopt = Ir.func_to_string r.fopt;
    actions = lines action_to_string (CM.actions_in_order r.mapper);
    per_pass = lines counts_to_string r.per_pass;
    remarks = lines T.remark_to_string (T.remarks tel);
    counters = lines (String.concat " ") (T.counter_rows ~all:true ());
    spans = List.sort compare (List.map (fun (n, c, _, _) -> (n, c)) (T.span_rows tel));
    skipped = !verify_skips;
  }

let spans_to_string spans = String.concat "\n" (List.map (fun (n, c) -> Printf.sprintf "%s %d" n c) spans)

(* What [got] should observe given the reference run [want]: the same,
   with [got.skipped] fewer verifications. *)
let expected (want : observed) (got : observed) : observed =
  {
    want with
    spans = List.map (fun (n, c) -> if n = "verify" then (n, c - got.skipped) else (n, c)) want.spans;
    skipped = got.skipped;
  }

let check_same ~(what : string) (want : observed) (got : observed) =
  let want = expected want got in
  let field name w g = Alcotest.(check string) (what ^ ": " ^ name) w g in
  field "fbase" want.fbase got.fbase;
  field "source points" want.points got.points;
  field "fopt" want.fopt got.fopt;
  field "mapper actions" want.actions got.actions;
  field "per-pass counts" want.per_pass got.per_pass;
  field "remarks" want.remarks got.remarks;
  field "counters" want.counters got.counters;
  field "span counts" (spans_to_string want.spans) (spans_to_string got.spans)

(* [P.apply] over the standard passes, each wrapped to count the
   verifications the pass manager skips: after a pass that returns [false]
   and leaves the function as it was (printed form and counters), once a
   verification in this call has accepted the function.  Acceptance is the
   reference verifier's; a pass that returns [false] but changed the
   function is rolled back unverified. *)
let new_apply ~telemetry f =
  let verified = ref false in
  let state (g : Ir.func) = Printf.sprintf "%s%d %d" (Ir.func_to_string g) g.next_id g.next_reg in
  let wrap (p : P.pass) =
    let run m g =
      let before = state g in
      let changed = p.run m g in
      let same = (not changed) && String.equal (state g) before in
      if same && !verified then incr verify_skips
      else if changed || same then
        if Result.is_ok (Ref_miniir.Verifier.verify g) then verified := true;
      changed
    in
    { p with run }
  in
  P.apply ~pipeline:(List.map wrap P.standard_pipeline) ~telemetry f
let ref_apply ~telemetry f = R.apply ~telemetry f

let check_kernel ~(what : string) (k : Corpus.Dsl.kernel) =
  let want =
    observe ~apply:ref_apply ~to_fbase:(fun () ->
        let f, d = R.Dsl.to_fbase k in
        (f, d.source_points))
  in
  let got =
    observe ~apply:new_apply ~to_fbase:(fun () ->
        let f, d = Corpus.Dsl.to_fbase k in
        (f, d.source_points))
  in
  check_same ~what want got

let test_kernels () =
  List.iter
    (fun (e : Corpus.Kernels.entry) -> check_kernel ~what:e.benchmark e.kernel)
    Corpus.Kernels.all

(* The whole Spec_c corpus takes the reference copies over ten seconds, so
   the gate runs a fixed size-stratified sample: the 759 functions sorted by
   the size of their alloca-form IR, cut into 128 equal strata, the middle
   function of each plus the largest one. *)
let spec_c_sample () : (string * Corpus.Dsl.kernel) list =
  let population =
    Array.of_list
      (List.concat_map
         (fun (prof : Corpus.Spec_c.profile) ->
           List.init prof.total_scaled (fun i ->
               let k = Corpus.Spec_c.kernel_of prof i in
               (Ir.instr_count (fst (Corpus.Dsl.lower k)), prof.bench, i, k)))
         Corpus.Spec_c.profiles)
  in
  Array.stable_sort (fun (a, b, i, _) (a', b', i', _) -> compare (a, b, i) (a', b', i')) population;
  let n = Array.length population and strata = 128 in
  let pick j =
    let lo = j * n / strata and hi = (j + 1) * n / strata in
    lo + ((hi - lo) / 2)
  in
  List.sort_uniq compare (n - 1 :: List.init strata pick)
  |> List.map (fun j ->
         let _, bench, i, k = population.(j) in
         (Printf.sprintf "%s #%d" bench i, k))

let test_spec_c () =
  let sample = spec_c_sample () in
  Alcotest.(check bool) "at least 128 functions" true (List.length sample >= 128);
  List.iter (fun (what, k) -> check_kernel ~what k) sample

(* One pass run alone on [g] with a fresh mapper: its change flag, the
   printed function and the action log. *)
let standalone (run : CM.t -> Ir.func -> bool) (g : Ir.func) : string =
  let m = CM.create () in
  let changed = Suite_passes.run_pass ~mapper:m run g in
  Printf.sprintf "%b\n%s%s" changed (Ir.func_to_string g)
    (String.concat "\n" (List.map action_to_string (CM.actions_in_order m)))

(* The passes with a frozen copy in {!Ref_front}, old against new. *)
let frozen_passes =
  [
    ("SCCP", R.Sccp.run, Passes.Sccp.run);
    ("LCSSA", R.Lcssa.run, Passes.Lcssa.run);
    ("Sink", R.Sink.run, Passes.Sink.run);
  ]

(* Generated alloca-form functions: mem2reg, the verifier, the pipeline,
   and SCCP, LCSSA and Sink run standalone (a fresh mapper), old against
   new. *)
let prop_generated_identical =
  QCheck.Test.make ~count:150 ~name:"front half identical on generated functions"
    Gen_ir.arb_func (fun (raw : Ir.func) ->
      let want = observe ~apply:ref_apply ~to_fbase:(fun () -> (R.to_fbase raw, [])) in
      let got = observe ~apply:new_apply ~to_fbase:(fun () -> (P.to_fbase raw, [])) in
      (expected want got = got
      || QCheck.Test.fail_reportf "pipeline observables differ:\n%s\nvs\n%s" want.fopt got.fopt)
      && List.for_all
           (fun (name, old_run, new_run) ->
             standalone old_run (P.to_fbase raw) = standalone new_run (P.to_fbase raw)
             || QCheck.Test.fail_reportf "standalone %s differs" name)
           frozen_passes)

(* Shapes neither the corpus nor the generator produces: an exit with two
   in-loop predecessors (the LCSSA φ gets one incoming per edge, in
   predecessor order), a nested loop whose exit lies inside the outer loop
   (the outer loop's φ becomes an outside use for the inner one), a value
   of an inner loop used after the outer one (the outer loop's φ for it
   gets an LCSSA φ of the inner loop as its incoming), outside
   uses in terminators and in an instruction reading the value twice, and
   alloca slots whose address escapes through a store or a call next to an
   unused φ the input already had (mem2reg must keep the first two and
   prune the third), and a definition listed after the block that uses it
   (Sink moves its user first, then, within the same round, sinks the
   definition to where the user was when the round began). *)
let shapes =
  [
    "func @two_edge_exit(%n, %k) {\n\
     entry:\n\
    \  br head\n\
     head:\n\
    \  %i = phi [entry: 0], [latch: %i2]\n\
    \  %c = icmp slt %i, %n\n\
    \  cbr %c, body, exit\n\
     body:\n\
    \  %s = mul %i, 3\n\
    \  %d = icmp eq %s, %k\n\
    \  cbr %d, exit, latch\n\
     latch:\n\
    \  %i2 = add %i, 1\n\
    \  br head\n\
     exit:\n\
    \  %r = add %i, %i\n\
    \  cbr %i, done, other\n\
     other:\n\
    \  ret %i\n\
     done:\n\
    \  ret %r\n\
     }\n";
    "func @nested(%n) {\n\
     entry:\n\
    \  br outer\n\
     outer:\n\
    \  %i = phi [entry: 0], [olatch: %i2]\n\
    \  %acc = phi [entry: 0], [olatch: %acc2]\n\
    \  %c = icmp slt %i, %n\n\
    \  cbr %c, inner, exit\n\
     inner:\n\
    \  %j = phi [outer: 0], [inner: %j2]\n\
    \  %t = add %acc, %j\n\
    \  %j2 = add %j, 1\n\
    \  %d = icmp slt %j2, %i\n\
    \  cbr %d, inner, olatch\n\
     olatch:\n\
    \  %acc2 = add %t, %t\n\
    \  %i2 = add %i, 1\n\
    \  br outer\n\
     exit:\n\
    \  %u = mul %acc, %i\n\
    \  ret %u\n\
     }\n";
    "func @nested_escape(%n) {\n\
     entry:\n\
    \  br outer\n\
     outer:\n\
    \  %i = phi [entry: 0], [olatch: %i2]\n\
    \  br inner\n\
     inner:\n\
    \  %j = phi [outer: 0], [inner: %j2]\n\
    \  %j2 = add %j, 1\n\
    \  %d = icmp slt %j2, %i\n\
    \  cbr %d, inner, olatch\n\
     olatch:\n\
    \  %i2 = add %i, 1\n\
    \  %c = icmp slt %i2, %n\n\
    \  cbr %c, outer, exit\n\
     exit:\n\
    \  ret %j2\n\
     }\n";
    "func @escapes(%x) {\n\
     entry:\n\
    \  %a = alloca\n\
    \  %b = alloca\n\
    \  %c = alloca\n\
    \  %d = alloca\n\
    \  store %x, %a\n\
    \  store %a, %b\n\
    \  store %x, %c\n\
    \  %h = call @hash(%c)\n\
    \  store %h, %d\n\
    \  cbr %x, l, r\n\
     l:\n\
    \  store 1, %d\n\
    \  br j\n\
     r:\n\
    \  br j\n\
     j:\n\
    \  %u = phi [l: %x], [r: 0]\n\
    \  %v = load %a\n\
    \  %w = load %d\n\
    \  %q = load %b\n\
    \  %z = add %v, %w\n\
    \  ret %z\n\
     }\n";
    "func @sink_chain(%p, %c) {\n\
     entry:\n\
    \  br pre\n\
     a:\n\
    \  %y = add %x, 2\n\
    \  cbr %c, b, d\n\
     b:\n\
    \  %z = add %y, 3\n\
    \  ret %z\n\
     d:\n\
    \  ret 0\n\
     pre:\n\
    \  %x = add %p, 1\n\
    \  br a\n\
     }\n";
  ]

let test_shapes () =
  List.iter
    (fun src ->
      let f = Miniir.Ir_parser.parse_func src in
      let what = f.Ir.fname in
      check_same ~what
        (observe ~apply:ref_apply ~to_fbase:(fun () -> (R.to_fbase f, [])))
        (observe ~apply:new_apply ~to_fbase:(fun () -> (P.to_fbase f, [])));
      List.iter
        (fun (name, old_run, new_run) ->
          Alcotest.(check string)
            (what ^ ": standalone " ^ name)
            (standalone old_run (Ir.clone_func f))
            (standalone new_run (Ir.clone_func f)))
        frozen_passes)
    shapes

(* mem2reg's other caller: continuation-function generation re-promotes
   the demoted slots of [f'to], an input that already carries φ-nodes.  Run
   both versions on the unpromoted continuations of every 10th feasible
   point of each kernel, in both directions. *)
let test_contfun_mem2reg () =
  let checked = ref 0 in
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let r = P.apply (fst (Corpus.Dsl.to_fbase e.kernel)) in
      List.iter
        (fun (dir, target) ->
          let ctx = Osrir.Osr_ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper dir in
          List.iteri
            (fun k (rep : Osrir.Feasibility.point_report) ->
              match (rep.landing, rep.avail_plan) with
              | Some landing, Some plan when k mod 10 = 0 ->
                  let cont = Osrir.Contfun.generate ~promote:false target ~landing plan in
                  let run m2r =
                    let g = Ir.clone_func cont.fto in
                    let changed = m2r g in
                    Printf.sprintf "%b\n%s" changed (Ir.func_to_string g)
                  in
                  incr checked;
                  Alcotest.(check string)
                    (Printf.sprintf "%s: mem2reg of the continuation at #%d" e.benchmark landing)
                    (run (fun g -> R.Mem2reg.run g))
                    (run (fun g -> Passes.Mem2reg.run g))
              | _ -> ())
            (Osrir.Feasibility.analyze ctx).reports)
        [ (Osrir.Osr_ctx.Base_to_opt, r.fopt); (Osrir.Osr_ctx.Opt_to_base, r.fbase) ])
    Corpus.Kernels.all;
  if !checked = 0 then Alcotest.fail "no continuation was generated"

(* -------------------- verifier mutations -------------------- *)

let first_some f l = List.find_map f l

let body_defs (f : Ir.func) : (Ir.block * Ir.instr * Ir.reg) list =
  List.concat_map
    (fun (b : Ir.block) ->
      List.filter_map
        (fun (i : Ir.instr) -> Option.map (fun r -> (b, i, r)) i.result)
        b.body)
    f.blocks

let phis_of (f : Ir.func) : (Ir.block * Ir.instr * (string * Ir.value) list) list =
  List.concat_map
    (fun (b : Ir.block) ->
      List.filter_map
        (fun (i : Ir.instr) ->
          match i.rhs with Ir.Phi inc -> Some (b, i, inc) | _ -> None)
        b.phis)
    f.blocks

(* Each mutation edits a fresh clone in place; [false] = not applicable. *)
let mutations : (string * (Ir.func -> bool)) list =
  [
    ( "duplicate label",
      fun f ->
        match List.rev f.blocks with
        | last :: _ :: _ ->
            last.label <- (List.nth f.blocks 1).label;
            true
        | _ -> false );
    ( "unknown branch target",
      fun f ->
        List.exists
          (fun (b : Ir.block) ->
            match b.term with
            | Ir.Br _ ->
                b.term <- Ir.Br "nowhere";
                true
            | Ir.Cbr (c, _, e) ->
                b.term <- Ir.Cbr (c, "nowhere", e);
                true
            | _ -> false)
          f.blocks );
    ( "duplicate id",
      fun f ->
        match (List.rev f.blocks, (Ir.entry f).term_id) with
        | last :: _, dup when last.body <> [] ->
            last.body <- { (List.hd last.body) with id = dup } :: List.tl last.body;
            true
        | _ -> false );
    ( "double definition",
      fun f ->
        match body_defs f with
        | (_, _, r) :: rest -> (
            match List.rev rest with
            | (_, i, _) :: _ ->
                i.result <- Some r;
                true
            | [] -> false)
        | [] -> false );
    ( "phi/predecessor mismatch",
      fun f ->
        first_some
          (fun (_, (i : Ir.instr), inc) ->
            match List.rev inc with
            | _ :: (_ :: _ as keep) ->
                i.rhs <- Ir.Phi (List.rev keep);
                Some ()
            | _ -> None)
          (phis_of f)
        <> None );
    ( "phi in body",
      fun f ->
        first_some
          (fun ((b : Ir.block), (i : Ir.instr), _) ->
            b.phis <- List.filter (fun (j : Ir.instr) -> j != i) b.phis;
            b.body <- i :: b.body;
            Some ())
          (phis_of f)
        <> None );
    ( "entry phi",
      fun f ->
        let e = Ir.entry f in
        e.phis <- [ { Ir.id = Ir.fresh_id f; result = Some (Ir.fresh_reg f); rhs = Ir.Phi [] } ];
        true );
    ( "undominated use",
      fun f ->
        let e = Ir.entry f in
        match List.filter (fun ((b : Ir.block), _, _) -> b != e) (body_defs f) with
        | (_, _, r) :: _ ->
            e.body <-
              e.body
              @ [
                  {
                    Ir.id = Ir.fresh_id f;
                    result = Some (Ir.fresh_reg f);
                    rhs = Ir.Binop (Ir.Add, Ir.Reg r, Ir.Const 0);
                  };
                ];
            true
        | [] -> false );
    ( "unavailable phi incoming",
      fun f ->
        let dom = Dom.compute (Miniir.Func_index.make f) in
        first_some
          (fun (_, (i : Ir.instr), inc) ->
            first_some
              (fun (pred, _) ->
                first_some
                  (fun ((d : Ir.block), _, r) ->
                    if Dom.reachable dom pred && not (Dom.dominates_block dom ~a:d.label ~b:pred)
                    then begin
                      i.rhs <-
                        Ir.Phi
                          (List.map
                             (fun (l, v) -> if String.equal l pred then (l, Ir.Reg r) else (l, v))
                             inc);
                      Some ()
                    end
                    else None)
                  (body_defs f))
              inc)
          (phis_of f)
        <> None );
  ]

let dup_incoming (f : Ir.func) : bool =
  first_some
    (fun (_, (i : Ir.instr), inc) ->
      match inc with
      | first :: _ ->
          i.rhs <- Ir.Phi (inc @ [ first ]);
          Some ()
      | [] -> None)
    (phis_of f)
  <> None

let pipeline_outputs () : (string * Ir.func) list =
  List.concat_map
    (fun (e : Corpus.Kernels.entry) ->
      let r = P.apply (fst (Corpus.Dsl.to_fbase e.kernel)) in
      [ (e.benchmark ^ " fbase", r.fbase); (e.benchmark ^ " fopt", r.fopt) ])
    Corpus.Kernels.all

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let errors_to_string = function
  | Ok () -> "ok"
  | Error es -> String.concat "\n" (List.map (Fmt.str "%a" V.pp_error) es)

let test_mutations () =
  let outputs = pipeline_outputs () in
  List.iter
    (fun (cls, mutate) ->
      let hits =
        List.fold_left
          (fun hits (what, f) ->
            let g = Ir.clone_func f in
            if not (mutate g) then hits
            else begin
              let want = R.Verifier.verify g and got = V.verify g in
              Alcotest.(check string) (cls ^ " on " ^ what) (errors_to_string want)
                (errors_to_string got);
              if Result.is_error got then hits + 1 else hits
            end)
          0 outputs
      in
      if hits = 0 then Alcotest.failf "mutation class %S was never rejected" cls)
    mutations;
  List.iter
    (fun (what, f) ->
      let g = Ir.clone_func f in
      if dup_incoming g then begin
        Alcotest.(check string) ("reference accepts duplicate incoming on " ^ what) "ok"
          (errors_to_string (R.Verifier.verify g));
        match V.verify g with
        | Error [ { V.what = msg; _ } ] when contains msg "more than one incoming" -> ()
        | r -> Alcotest.failf "duplicate incoming on %s: %s" what (errors_to_string r)
      end)
    outputs


(* -------------------- verifier differential gate -------------------- *)

(* Pipeline outputs of the kernels, the Spec_c sample and generated
   functions. *)
let gate_inputs () : (string * Ir.func) list =
  let fopt what f = (what, (P.apply f).fopt) in
  List.map
    (fun (e : Corpus.Kernels.entry) -> fopt e.benchmark (fst (Corpus.Dsl.to_fbase e.kernel)))
    Corpus.Kernels.all
  @ List.map (fun (what, k) -> fopt what (fst (Corpus.Dsl.to_fbase k))) (spec_c_sample ())
  @ List.mapi
      (fun n raw -> fopt (Printf.sprintf "generated #%d" n) (P.to_fbase raw))
      (QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:60 Gen_ir.gen_func)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let registers (f : Ir.func) : Ir.reg list =
  f.params @ List.filter_map (fun (i : Ir.instr) -> i.result) (Ir.all_instrs f)

let labels (f : Ir.func) = List.map (fun (b : Ir.block) -> b.label) f.blocks

(* Replace one operand, drawn uniformly from every operand of every
   instruction and terminator, by [v ()]. *)
let rewrite_operand rng (f : Ir.func) (v : unit -> Ir.value) : bool =
  let n_rhs (i : Ir.instr) = List.length (Ir.rhs_operands i.rhs) in
  let n_term (b : Ir.block) = List.length (Ir.term_operands b.term) in
  let total =
    List.fold_left
      (fun acc (b : Ir.block) ->
        acc + n_term b + List.fold_left (fun acc i -> acc + n_rhs i) 0 (Ir.block_instrs b))
      0 f.blocks
  in
  total > 0
  &&
  let k = ref (Random.State.int rng total) in
  let fn x =
    let y = if !k = 0 then v () else x in
    decr k;
    y
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (i : Ir.instr) -> i.rhs <- Ir.map_rhs_operands fn i.rhs) (Ir.block_instrs b);
      b.term <- Ir.map_term_operands fn b.term)
    f.blocks;
  true

(* The eight kinds of change; each edits a fresh clone in place, [false] =
   not applicable. *)
let mutant_kinds : (string * (Random.State.t -> Ir.func -> bool)) list =
  [
    ( "operand -> random register",
      fun rng f ->
        let regs = registers f in
        regs <> [] && rewrite_operand rng f (fun () -> Ir.Reg (pick rng regs)) );
    ( "retargeted branch",
      fun rng f ->
        match List.filter (fun (b : Ir.block) -> Ir.successors b <> []) f.blocks with
        | [] -> false
        | bs ->
            let b = pick rng bs and l = pick rng (labels f) in
            (b.term <-
               (match b.term with
               | Ir.Cbr (c, x, y) -> if Random.State.bool rng then Ir.Cbr (c, l, y) else Ir.Cbr (c, x, l)
               | _ -> Ir.Br l));
            true );
    ( "duplicated result",
      fun rng f ->
        match List.filter (fun (i : Ir.instr) -> i.result <> None) (Ir.all_instrs f) with
        | _ :: _ :: _ as is ->
            let i = pick rng is and j = pick rng is in
            i != j
            &&
            (j.result <- i.result;
             true)
        | _ -> false );
    ( "swapped body instructions",
      fun rng f ->
        match List.filter (fun (b : Ir.block) -> List.compare_length_with b.body 2 >= 0) f.blocks with
        | [] -> false
        | bs ->
            let b = pick rng bs in
            let a = Array.of_list b.body in
            let x = Random.State.int rng (Array.length a) and y = Random.State.int rng (Array.length a) in
            x <> y
            &&
            let t = a.(x) in
            a.(x) <- a.(y);
            a.(y) <- t;
            b.body <- Array.to_list a;
            true );
    ( "relabelled phi incoming",
      fun rng f ->
        match phis_of f with
        | [] -> false
        | ps ->
            let _, (i : Ir.instr), inc = pick rng ps in
            inc <> []
            &&
            let k = Random.State.int rng (List.length inc) and l = pick rng (labels f) in
            i.rhs <- Ir.Phi (List.mapi (fun j (l', v) -> if j = k then (l, v) else (l', v)) inc);
            true );
    ( "dropped block",
      fun rng f ->
        match f.blocks with
        | e :: (_ :: _ as rest) ->
            let b = pick rng rest in
            f.blocks <- e :: List.filter (fun b' -> b' != b) rest;
            true
        | _ -> false );
    ("use of an undefined register", fun rng f -> rewrite_operand rng f (fun () -> Ir.Reg "nodef"));
    ( "instruction moved to another block's top",
      fun rng f ->
        match (List.filter (fun (b : Ir.block) -> b.body <> []) f.blocks, f.blocks) with
        | [], _ | _, ([] | [ _ ]) -> false
        | from, all ->
            let b = pick rng from in
            let i = pick rng b.body and dst = pick rng all in
            dst != b
            &&
            (b.body <- List.filter (fun j -> j != i) b.body;
             dst.body <- i :: dst.body;
             true) );
  ]

let ids_in_range (f : Ir.func) =
  List.for_all
    (fun (b : Ir.block) ->
      b.term_id >= 0 && b.term_id < f.next_id
      && List.for_all (fun (i : Ir.instr) -> i.id >= 0 && i.id < f.next_id) (Ir.block_instrs b))
    f.blocks

(* The facts of a dominator tree the gate compares: the reverse postorder
   as labels, idom, tin and tout by rpo index, and each block label's
   predecessor labels, in block order. *)
let dom_facts (f : Ir.func) ~order ~idom ~tin ~tout ~(preds : string -> string list) : string =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  String.concat " | "
    ([ String.concat "," (Array.to_list order); ints idom; ints tin; ints tout ]
    @ List.map
        (fun l -> l ^ "<-" ^ String.concat "," (preds l))
        (List.sort_uniq String.compare (labels f)))

let dom_to_string (f : Ir.func) : string =
  match Dom.compute (Miniir.Func_index.make f) with
  | exception e -> Printexc.to_string e
  | d ->
      dom_facts f
        ~order:(Array.map (fun v -> d.index.labels.(v)) d.order)
        ~idom:d.idom ~tin:d.tin ~tout:d.tout
        ~preds:(Miniir.Func_index.predecessors d.index)

(* The reference conses each predecessor list, so it holds the block order
   reversed. *)
let ref_dom_to_string (f : Ir.func) : string =
  match R.dom_compute f with
  | exception e -> Printexc.to_string e
  | d ->
      dom_facts f ~order:d.order ~idom:d.idom ~tin:d.tin ~tout:d.tout ~preds:(fun l ->
          List.rev (Option.value ~default:[] (Hashtbl.find_opt d.preds l)))

(* Every mutant's error list must equal the reference verifier's; the
   verifier must accept exactly what the reference accepts among functions
   whose ids are all in [0, next_id) (the reference has no id bound); and
   [Dom.compute] must equal the reference copy's on every mutant. *)
let test_differential () =
  let rng = Random.State.make [| 2024 |] in
  let inputs = gate_inputs () in
  let failures = ref [] and mutants = ref 0 in
  let check what (g : Ir.func) =
    let want = Ref_miniir.Verifier.verify g and got = V.verify g in
    let fail fmt = Printf.ksprintf (fun m -> failures := (what ^ ": " ^ m) :: !failures) fmt in
    if errors_to_string want <> errors_to_string got then
      fail "verify:\n%s\nreference:\n%s" (errors_to_string got) (errors_to_string want);
    if Result.is_ok got <> (Result.is_ok want && ids_in_range g) then
      fail "verify says %s, reference %s" (errors_to_string got) (errors_to_string want);
    if dom_to_string g <> ref_dom_to_string g then fail "Dom.compute differs";
    Result.is_error want
  in
  List.iter (fun (what, f) -> ignore (check what f : bool)) inputs;
  List.iter
    (fun (kind, mutate) ->
      let rejected = ref 0 in
      List.iter
        (fun (what, f) ->
          for n = 1 to 3 do
            let g = Ir.clone_func f in
            if mutate rng g then begin
              incr mutants;
              if check (Printf.sprintf "%s, %s #%d" what kind n) g then incr rejected
            end
          done)
        inputs;
      if !rejected = 0 then Alcotest.failf "no %S mutant was rejected" kind)
    mutant_kinds;
  (* Ids outside [0, next_id) and huge ones: the reference accepts an id
     at or above [next_id] and raises on a negative one, so each case
     states its error list ([] = valid). *)
  let f = snd (List.hd inputs) in
  let out_of_range what edit want =
    let g = Ir.clone_func f in
    let want = match want g with [] -> "ok" | es -> String.concat "\n" es in
    edit g;
    let got = match V.verify g with r -> errors_to_string r | exception e -> Printexc.to_string e in
    Alcotest.(check string) what want got
  in
  let first_body id (g : Ir.func) =
    let b = Ir.entry g in
    b.body <- { (List.hd b.body) with id } :: List.tl b.body
  in
  let range (g : Ir.func) kind id =
    Printf.sprintf "%s: %s id %d outside [0, %d)" (Ir.entry g).label kind id g.next_id
  in
  out_of_range "id >= next_id is rejected"
    (fun g -> first_body (g.next_id + 3) g)
    (fun g -> [ range g "instruction" (g.next_id + 3) ]);
  out_of_range "id = next_id is rejected"
    (fun g -> first_body g.next_id g)
    (fun g -> [ range g "instruction" g.next_id ]);
  out_of_range "id -1 is rejected" (first_body (-1)) (fun g -> [ range g "instruction" (-1) ]);
  out_of_range "terminator id > next_id is rejected"
    (fun g -> g.blocks <- { (Ir.entry g) with term_id = g.next_id + 1 } :: List.tl g.blocks)
    (fun g -> [ range g "terminator" (g.next_id + 1) ]);
  (* The range error sits where the duplicate-id error would, before the
     register error of the same instruction. *)
  out_of_range "id -1 with a duplicate register"
    (fun g ->
      let b = Ir.entry g in
      match b.body with
      | i :: j :: rest -> b.body <- i :: { j with id = -1; result = i.result } :: rest
      | _ -> Alcotest.fail "entry block has fewer than two instructions")
    (fun g ->
      let r = Option.get (List.hd (Ir.entry g).body).result in
      [
        range g "instruction" (-1);
        Printf.sprintf "%s: register %%%s defined twice" (Ir.entry g).label r;
      ]);
  (* A huge [next_id] sizes no allocation; ids far above the usual ones
     are still checked for duplicates. *)
  out_of_range "next_id = max_int is accepted" (fun g -> g.next_id <- max_int) (fun _ -> []);
  out_of_range "duplicate id 2^40"
    (fun g ->
      g.next_id <- max_int;
      let b = Ir.entry g in
      b.body <- List.map (fun (i : Ir.instr) -> { i with id = 1 lsl 40 }) b.body)
    (fun g ->
      List.map
        (fun _ -> Printf.sprintf "%s: duplicate instruction id %d" (Ir.entry g).label (1 lsl 40))
        (List.tl (Ir.entry g).body));
  match List.rev !failures with
  | [] -> Alcotest.(check bool) "over 4,000 mutants checked" true (!mutants > 4000)
  | fs ->
      Alcotest.failf "%d of %d mutants disagree; first:\n%s" (List.length fs) !mutants (List.hd fs)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "front",
    [
      t "kernels: to_fbase + pipeline identical" test_kernels;
      t "Spec_c sample: to_fbase + pipeline identical" test_spec_c;
      QCheck_alcotest.to_alcotest prop_generated_identical;
      t "hand-written shapes: pipeline, mem2reg, LCSSA identical" test_shapes;
      t "continuations: mem2reg identical" test_contfun_mem2reg;
      t "verifier: mutations match the reference" test_mutations;
      t "verifier: seeded mutants match the replaced verifier" test_differential;
    ] )
