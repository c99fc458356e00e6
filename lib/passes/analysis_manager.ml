open Import

(** The analysis manager: memoizes the function-level analyses
    ([Func_index], dominators, natural loops) for one function version,
    with explicit invalidation.  Mirrors (in miniature) LLVM's
    analysis-manager/pass-preservation contract:

    - a pass asks for an analysis with {!index} / {!dom} / {!loops}; the
      manager computes it at most once per function version;
    - every pass declares which analyses it {e preserves} when it changes
      the function (see {!Pass_manager.pass}); after a changing pass run
      the pass manager calls {!invalidate} with that list and the manager
      drops everything else;
    - a pass that reports "no change" preserves everything implicitly.

    Caching is keyed on physical identity of the [Ir.func]: asking for an
    analysis of a different function resets the whole cache (the manager
    tracks one function version at a time, which is all the pipeline
    needs). *)

type analysis = Index | Dominators | Loops

(** CFG-shape-preserving passes (no block or edge changes) keep dominators
    and loop structure valid even while they add, delete, move or rewrite
    instructions. *)
let cfg_preserving : analysis list = [ Dominators; Loops ]

type t = {
  tel : Telemetry.sink;
  mutable func : Ir.func option;  (** the function the cache is valid for *)
  mutable index : Func_index.t option;
  mutable dom : Dom.t option;
  mutable loops : Loops.t option;
}

(* Cache statistics, one hit/miss pair per analysis plus the invalidation
   count — the numbers behind `--stats` and the EXPERIMENTS.md cache table. *)
let stat_hit (what : string) =
  Telemetry.counter ~group:"am" (what ^ ".hit") ~desc:("cached " ^ what ^ " reused")

let stat_miss (what : string) =
  Telemetry.counter ~group:"am" (what ^ ".miss") ~desc:(what ^ " computed")

let hit_index = stat_hit "index"
and miss_index = stat_miss "index"

let hit_dom = stat_hit "dom"
and miss_dom = stat_miss "dom"

let hit_loops = stat_hit "loops"
and miss_loops = stat_miss "loops"

let stat_invalidated =
  Telemetry.counter ~group:"am" "invalidated"
    ~desc:"cached analyses dropped after a changing pass"

let create ?(telemetry = Telemetry.null) () : t =
  { tel = telemetry; func = None; index = None; dom = None; loops = None }

let clear (t : t) : unit =
  t.index <- None;
  t.dom <- None;
  t.loops <- None

(* Retarget the cache when asked about a different function. *)
let bind (t : t) (f : Ir.func) : unit =
  match t.func with
  | Some g when g == f -> ()
  | _ ->
      t.func <- Some f;
      clear t

let index (t : t) (f : Ir.func) : Func_index.t =
  bind t f;
  match t.index with
  | Some i ->
      Telemetry.bump t.tel hit_index;
      i
  | None ->
      Telemetry.bump t.tel miss_index;
      let i = Func_index.make f in
      t.index <- Some i;
      i

let dom (t : t) (f : Ir.func) : Dom.t =
  bind t f;
  match t.dom with
  | Some d ->
      Telemetry.bump t.tel hit_dom;
      d
  | None ->
      Telemetry.bump t.tel miss_dom;
      let d = Dom.compute ~index:(index t f) f in
      t.dom <- Some d;
      d

let loops (t : t) (f : Ir.func) : Loops.t =
  bind t f;
  match t.loops with
  | Some l ->
      Telemetry.bump t.tel hit_loops;
      l
  | None ->
      Telemetry.bump t.tel miss_loops;
      let l = Loops.compute ~index:(index t f) ~dom:(dom t f) f in
      t.loops <- Some l;
      l

(** Drop every cached analysis not in [preserved].  Called by the pass
    manager after a pass reports it changed the function. *)
let invalidate ?(preserved : analysis list = []) (t : t) : unit =
  let keep a = List.mem a preserved in
  let drop : 'a. 'a option -> 'a option =
   fun cached ->
    match cached with
    | Some _ ->
        Telemetry.bump t.tel stat_invalidated;
        None
    | None -> None
  in
  if not (keep Index) then t.index <- drop t.index;
  if not (keep Dominators) then t.dom <- drop t.dom;
  if not (keep Loops) then t.loops <- drop t.loops
