(** The Section 7 study corpus: a deterministic, seeded family of synthetic
    functions per SPEC CPU2006 C benchmark, standing in for "each method of
    each C benchmark" (Table 4).  Function counts are the paper's |Ftot|
    scaled by 1/16 (the originals range from 19 to 5577 functions); each
    benchmark keeps its own flavour via a generation profile (function size
    range, branchiness, loop depth, constant density — e.g. gcc/perlbench
    have many large branchy functions, lbm has a few loopy numeric ones).

    Determinism: every function is produced from a [Random.State] seeded by
    the benchmark name and function index, so all experiments are exactly
    reproducible. *)

open Dsl

module Ir = Miniir.Ir

type profile = {
  bench : string;
  total_scaled : int;  (** |Ftot| / 16, at least 2 *)
  paper_total : int;  (** the paper's |Ftot|, for EXPERIMENTS.md *)
  size_lo : int;  (** statements per function, lower bound *)
  size_hi : int;
  branchiness : int;  (** percent chance a statement is a branch *)
  loopiness : int;  (** percent chance a statement is a loop *)
  const_density : int;  (** percent chance an operand is a literal *)
}

let profiles : profile list =
  [
    { bench = "bzip2"; total_scaled = 7; paper_total = 100; size_lo = 6; size_hi = 18;
      branchiness = 25; loopiness = 20; const_density = 13 };
    { bench = "gcc"; total_scaled = 348; paper_total = 5577; size_lo = 4; size_hi = 22;
      branchiness = 35; loopiness = 10; const_density = 15 };
    { bench = "gobmk"; total_scaled = 158; paper_total = 2523; size_lo = 5; size_hi = 20;
      branchiness = 40; loopiness = 12; const_density = 11 };
    { bench = "h264ref"; total_scaled = 37; paper_total = 590; size_lo = 8; size_hi = 24;
      branchiness = 25; loopiness = 22; const_density = 13 };
    { bench = "hmmer"; total_scaled = 34; paper_total = 538; size_lo = 6; size_hi = 18;
      branchiness = 20; loopiness = 25; const_density = 11 };
    { bench = "lbm"; total_scaled = 2; paper_total = 19; size_lo = 12; size_hi = 28;
      branchiness = 15; loopiness = 30; const_density = 10 };
    { bench = "libquantum"; total_scaled = 7; paper_total = 115; size_lo = 4; size_hi = 12;
      branchiness = 18; loopiness = 22; const_density = 15 };
    { bench = "mcf"; total_scaled = 2; paper_total = 24; size_lo = 8; size_hi = 20;
      branchiness = 30; loopiness = 20; const_density = 10 };
    { bench = "milc"; total_scaled = 15; paper_total = 235; size_lo = 6; size_hi = 18;
      branchiness = 15; loopiness = 28; const_density = 11 };
    { bench = "perlbench"; total_scaled = 117; paper_total = 1870; size_lo = 5; size_hi = 24;
      branchiness = 40; loopiness = 10; const_density = 15 };
    { bench = "sjeng"; total_scaled = 9; paper_total = 144; size_lo = 6; size_hi = 20;
      branchiness = 35; loopiness = 15; const_density = 13 };
    { bench = "sphinx3"; total_scaled = 23; paper_total = 369; size_lo = 6; size_hi = 18;
      branchiness = 22; loopiness = 22; const_density = 11 };
  ]

let locals_pool = [ "a"; "b"; "c"; "d"; "e"; "t"; "u" ]
let binops = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor |]
let intrs = [| "abs"; "min"; "max" |]

let rec gen_expr (rng : Random.State.t) (prof : profile) (depth : int) : expr =
  if depth = 0 || Random.State.int rng 100 < prof.const_density then
    match Random.State.int rng 5 with
    | 0 -> Const (Random.State.int rng 21 - 10)
    | 1 -> Param (if Random.State.bool rng then "x" else "y")
    | _ -> Slot (List.nth locals_pool (Random.State.int rng (List.length locals_pool)))
  else
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        Bin
          ( binops.(Random.State.int rng (Array.length binops)),
            gen_expr rng prof (depth - 1),
            gen_expr rng prof (depth - 1) )
    | 5 -> Arr ("data", gen_expr rng prof (depth - 1))
    | 6 ->
        let name = intrs.(Random.State.int rng (Array.length intrs)) in
        if name = "abs" then Intr (name, [ gen_expr rng prof (depth - 1) ])
        else Intr (name, [ gen_expr rng prof (depth - 1); gen_expr rng prof (depth - 1) ])
    | 7 ->
        Cmp
          ( (match Random.State.int rng 3 with 0 -> Ir.Slt | 1 -> Ir.Sgt | _ -> Ir.Eq),
            gen_expr rng prof (depth - 1),
            gen_expr rng prof (depth - 1) )
    | _ -> Slot (List.nth locals_pool (Random.State.int rng (List.length locals_pool)))

let rec gen_stmts (rng : Random.State.t) (prof : profile) ~(depth : int) (n : int) : stmt list =
  List.init n (fun _ -> gen_stmt rng prof ~depth)

and gen_stmt (rng : Random.State.t) (prof : profile) ~(depth : int) : stmt =
  let roll = Random.State.int rng 100 in
  if depth > 0 && roll < prof.loopiness then
    let counter = Printf.sprintf "i%d" depth in
    For
      {
        i = counter;
        below = Const (1 + Random.State.int rng 4);
        body = gen_stmts rng prof ~depth:(depth - 1) (1 + Random.State.int rng 3);
      }
  else if depth > 0 && roll < prof.loopiness + prof.branchiness then
    If
      ( gen_expr rng prof 2,
        gen_stmts rng prof ~depth:(depth - 1) (1 + Random.State.int rng 2),
        gen_stmts rng prof ~depth:(depth - 1) (Random.State.int rng 2) )
  else
    match Random.State.int rng 10 with
    | 0 -> Arr_set ("data", gen_expr rng prof 2, gen_expr rng prof 2)
    | 9 ->
        (* An observable call pins its argument: variables passed to
           functions stay live in optimized code. *)
        Emit (Slot (List.nth locals_pool (Random.State.int rng (List.length locals_pool))))
    | 1 | 2 | 3 | 4 ->
        (* Accumulator-style updates dominate real numeric code: the old
           value is read, so the previous definition is not dead. *)
        let u = List.nth locals_pool (Random.State.int rng (List.length locals_pool)) in
        Set (u, Bin (binops.(Random.State.int rng (Array.length binops)), Slot u, gen_expr rng prof 2))
    | _ ->
        Set
          ( List.nth locals_pool (Random.State.int rng (List.length locals_pool)),
            gen_expr rng prof 3 )

(** One generated study function with its debug metadata, already promoted
    to [fbase] form. *)
type study_func = { fbase : Ir.func; dbg : Dsl.debug_info }

(** The DSL kernel behind study function [index] of [prof]. *)
let kernel_of (prof : profile) (index : int) : kernel =
  let seed = Hashtbl.hash (prof.bench, index, "osr-distilled") in
  let rng = Random.State.make [| seed |] in
  let n = prof.size_lo + Random.State.int rng (prof.size_hi - prof.size_lo + 1) in
  let body = gen_stmts rng prof ~depth:2 n in
  (* Real functions consume what they compute: the result combines every
     local, keeping user variables live across the body instead of dying at
     their last textual use. *)
  let ret =
    List.fold_left
      (fun acc u -> Bin (Ir.Add, acc, Slot u))
      (Slot (List.hd locals_pool))
      (List.tl locals_pool)
  in
  {
    kname = Printf.sprintf "%s_fn%03d" prof.bench index;
    params = [ "x"; "y" ];
    arrays = [ ("data", 16) ];
    locals = locals_pool;
    body;
    ret;
  }

let gen_function (prof : profile) (index : int) : study_func =
  let fbase, dbg = Dsl.to_fbase (kernel_of prof index) in
  { fbase; dbg }

(** All functions of one benchmark. *)
let functions_of (prof : profile) : study_func list =
  List.init prof.total_scaled (gen_function prof)

let find (bench : string) : profile option =
  List.find_opt (fun p -> String.equal p.bench bench) profiles
