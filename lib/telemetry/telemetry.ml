(** Telemetry: the observability spine of the pipeline — spans, statistics
    counters and optimization remarks, in the mold of LLVM's [-time-passes],
    [Statistic] and remark infrastructure.

    Three instruments, all routed through a {!sink}:

    - {b spans} — timed scopes with nesting.  Each completed span records a
      Chrome-trace ["X"] (complete) event and feeds a per-name aggregate
      (count, total and self time), the [-time-passes] analogue.  Export
      with {!chrome_trace} / {!write_chrome_trace} (loadable in
      [chrome://tracing] / Perfetto) and {!span_rows}.
    - {b counters} — named statistics registered once at module level (the
      LLVM [Statistic] analogue: [let c = Telemetry.counter ~group:"cse"
      "eliminated"]) and bumped through a sink; bumps through a disabled
      sink cost one branch.  Counters are process-global; {!reset_counters}
      zeroes the registry between measurements.
    - {b remarks} — structured per-pass messages with an optional
      function/block/instruction location, built lazily so a disabled sink
      never pays for message formatting.  Filterable by pass name.

    The {!null} sink is disabled and shared: instrumented code paths run at
    full speed when nobody is watching (osrbench's untraced cycles run on
    it, and its [trace.overhead_pct] metric is the cost of a live sink over
    them).  Timing uses [Unix.gettimeofday] by default; tests inject a
    deterministic clock via {!create}.

    {b Domains.}  A sink is single-domain: all its operations must come
    from the domain that owns it.  Parallel work forks one {e buffered}
    sub-sink per task with {!fork} — bumps land in a private delta table
    instead of the global counter registry, spans and remarks accumulate
    locally — and the owner merges them back with {!join}, in task order.
    Counter merging is addition (order-independent), and events/remarks
    append in join order, so a [j = N] run that joins its sub-sinks in
    task-index order reproduces the [j = 1] stream byte for byte. *)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = {
  cid : int;  (** registration index — the key buffered sinks merge on *)
  group : string;  (** subsystem, e.g. ["mapper"], ["am"], ["interp"] *)
  cname : string;  (** counter name inside the group *)
  cdesc : string;
  mutable value : int;
}

(* The global registry, populated by module-initialization time [counter]
   calls (newest first; every dump sorts by (group, name) so output order
   never depends on registration or hashing order). *)
let registry : counter list ref = ref []

(** Register a counter.  Call once, at module level, from the main domain
    (module initialization runs there; worker domains only ever bump). *)
let counter ~(group : string) ?(desc : string = "") (name : string) : counter =
  let c = { cid = List.length !registry; group; cname = name; cdesc = desc; value = 0 } in
  registry := c :: !registry;
  c

let reset_counters () : unit = List.iter (fun c -> c.value <- 0) !registry

(** All registered counters, sorted by [group.name]. *)
let counters () : counter list =
  List.sort
    (fun a b ->
      match compare a.group b.group with 0 -> compare a.cname b.cname | n -> n)
    !registry

let nonzero_counters () : counter list = List.filter (fun c -> c.value <> 0) (counters ())

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

type remark = {
  rpass : string;
  rfunc : string option;
  rblock : string option;
  rinstr : int option;  (** instruction id *)
  rmsg : string;
}

(** One completed span, as a Chrome-trace complete event. *)
type trace_event = {
  ev_name : string;
  ev_cat : string;
  ev_ts_us : float;  (** start, microseconds since the sink was created *)
  ev_dur_us : float;
}

type span_frame = {
  sf_name : string;
  sf_cat : string;
  sf_start : float;
  mutable sf_child : float;  (** seconds spent in completed sub-spans *)
}

type agg = { mutable n : int; mutable total : float; mutable self : float }

type sink = {
  enabled : bool;
  clock : unit -> float;  (** seconds; only ever called when enabled *)
  t0 : float;
  mutable events : trace_event list;  (** reversed *)
  mutable stack : span_frame list;  (** open spans, innermost first *)
  totals : (string, agg) Hashtbl.t;  (** span name → aggregate *)
  mutable remarks : remark list;  (** reversed *)
  deltas : (int, counter * int ref) Hashtbl.t option;
      (** buffered sinks ({!fork}) accumulate counter bumps here, keyed by
          [cid], instead of touching the global registry — the domain-safe
          mode; {!join} folds the deltas back in *)
}

(** The shared disabled sink: every operation is a no-op. *)
let null : sink =
  {
    enabled = false;
    clock = (fun () -> 0.0);
    t0 = 0.0;
    events = [];
    stack = [];
    totals = Hashtbl.create 1;
    remarks = [];
    deltas = None;
  }

(** A live sink.  [clock] defaults to [Unix.gettimeofday]. *)
let create ?(clock = Unix.gettimeofday) () : sink =
  {
    enabled = true;
    clock;
    t0 = clock ();
    events = [];
    stack = [];
    totals = Hashtbl.create 32;
    remarks = [];
    deltas = None;
  }

let is_enabled (s : sink) : bool = s.enabled

(** A buffered child of [parent] for one parallel task: enabled iff the
    parent is (forking the {!null} sink returns {!null} — the disabled
    parallel path pays nothing), sharing the parent's clock and time
    origin, with private event/remark/counter storage.  Hand each task its
    own fork, use it from exactly one domain, and {!join} the forks back in
    task order. *)
let fork (parent : sink) : sink =
  if not parent.enabled then null
  else
    {
      enabled = true;
      clock = parent.clock;
      t0 = parent.t0;
      events = [];
      stack = [];
      totals = Hashtbl.create 8;
      remarks = [];
      deltas = Some (Hashtbl.create 16);
    }

(** Merge a completed fork back into its parent (call from the parent's
    owning domain, after the task finished).  Counter deltas add — an
    order-independent reduction, so merged totals equal the sequential
    run's no matter how tasks were scheduled; events, span aggregates and
    remarks append in call order, which the caller makes deterministic by
    joining in task-index order. *)
let join (parent : sink) (child : sink) : unit =
  if parent.enabled && child.enabled && child != parent then begin
    (match child.deltas with
    | None -> ()
    | Some tbl ->
        Hashtbl.iter
          (fun cid ((c : counter), d) ->
            match parent.deltas with
            | None -> c.value <- c.value + !d
            | Some ptbl -> (
                (* a buffered parent keeps buffering (nested forks) *)
                match Hashtbl.find_opt ptbl cid with
                | Some (_, pd) -> pd := !pd + !d
                | None -> Hashtbl.replace ptbl cid (c, ref !d)))
          tbl);
    parent.events <- child.events @ parent.events;
    parent.remarks <- child.remarks @ parent.remarks;
    Hashtbl.iter
      (fun name (a : agg) ->
        match Hashtbl.find_opt parent.totals name with
        | Some pa ->
            pa.n <- pa.n + a.n;
            pa.total <- pa.total +. a.total;
            pa.self <- pa.self +. a.self
        | None -> Hashtbl.replace parent.totals name { n = a.n; total = a.total; self = a.self })
      child.totals
  end

(* ------------------------------------------------------------------ *)
(* Counter bumps (sink-gated)                                          *)
(* ------------------------------------------------------------------ *)

(* The disabled path stays one branch; a live unbuffered sink pays one
   extra (perfectly predicted) match on [deltas]. *)
let add (s : sink) (c : counter) (n : int) : unit =
  if s.enabled then
    match s.deltas with
    | None -> c.value <- c.value + n
    | Some tbl -> (
        match Hashtbl.find_opt tbl c.cid with
        | Some (_, d) -> d := !d + n
        | None -> Hashtbl.replace tbl c.cid (c, ref n))

let bump (s : sink) (c : counter) : unit = add s c 1

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span_exit (s : sink) (frame : span_frame) : unit =
  let now = s.clock () in
  let dur = now -. frame.sf_start in
  (match s.stack with
  | top :: rest when top == frame -> s.stack <- rest
  | _ -> () (* unbalanced exits cannot happen through [with_span] *));
  (match s.stack with parent :: _ -> parent.sf_child <- parent.sf_child +. dur | [] -> ());
  s.events <-
    {
      ev_name = frame.sf_name;
      ev_cat = frame.sf_cat;
      ev_ts_us = (frame.sf_start -. s.t0) *. 1e6;
      ev_dur_us = dur *. 1e6;
    }
    :: s.events;
  let a =
    match Hashtbl.find_opt s.totals frame.sf_name with
    | Some a -> a
    | None ->
        let a = { n = 0; total = 0.0; self = 0.0 } in
        Hashtbl.replace s.totals frame.sf_name a;
        a
  in
  a.n <- a.n + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. frame.sf_child)

(** Time [f] under [name].  Nesting is tracked: a span's {e self} time
    excludes its sub-spans.  The result (or exception) of [f] passes
    through untouched; a disabled sink adds one branch. *)
let with_span (s : sink) ?(cat = "span") (name : string) (f : unit -> 'a) : 'a =
  if not s.enabled then f ()
  else begin
    let frame = { sf_name = name; sf_cat = cat; sf_start = s.clock (); sf_child = 0.0 } in
    s.stack <- frame :: s.stack;
    match f () with
    | v ->
        span_exit s frame;
        v
    | exception e ->
        span_exit s frame;
        raise e
  end

(** Completed spans in completion order. *)
let trace_events (s : sink) : trace_event list = List.rev s.events

(** Per-name span aggregates [(name, count, total_s, self_s)], largest
    total first with name as the tie-break — the rows of the
    [-time-passes] table.  The tie-break matters for determinism: under a
    frozen test clock every total is equal, and without it row order would
    be hash-table order. *)
let span_rows (s : sink) : (string * int * float * float) list =
  Hashtbl.fold (fun name a acc -> (name, a.n, a.total, a.self) :: acc) s.totals []
  |> List.sort (fun (na, _, ta, _) (nb, _, tb, _) ->
         match compare tb ta with 0 -> compare na nb | c -> c)

(* ------------------------------------------------------------------ *)
(* Remarks                                                             *)
(* ------------------------------------------------------------------ *)

(** Record a remark.  The message thunk only runs when the sink is
    enabled — build it with a closure, not ahead of time. *)
let remark (s : sink) ~(pass : string) ?(func : string option) ?(block : string option)
    ?(instr : int option) (msg : unit -> string) : unit =
  if s.enabled then
    s.remarks <-
      { rpass = pass; rfunc = func; rblock = block; rinstr = instr; rmsg = msg () }
      :: s.remarks

(** Remarks in emission order, optionally only those of one pass. *)
let remarks ?(pass : string option) (s : sink) : remark list =
  let all = List.rev s.remarks in
  match pass with
  | None -> all
  | Some p -> List.filter (fun r -> String.equal r.rpass p) all

let remark_to_string (r : remark) : string =
  let loc =
    match (r.rfunc, r.rblock, r.rinstr) with
    | None, None, None -> ""
    | f, b, i ->
        let parts =
          List.filter_map Fun.id
            [ f; Option.map (fun l -> "%" ^ l) b; Option.map (fun id -> "#" ^ string_of_int id) i ]
        in
        " (" ^ String.concat " " parts ^ ")"
  in
  Printf.sprintf "[%s]%s %s" r.rpass loc r.rmsg

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

module Json = Json

(** The sink's spans as a Chrome-trace JSON document (complete ["X"]
    events, one process/thread), loadable in [chrome://tracing]. *)
let chrome_trace (s : sink) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}"
           (Json.escape ev.ev_name) (Json.escape ev.ev_cat) ev.ev_ts_us ev.ev_dur_us))
    (trace_events s);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_chrome_trace (s : sink) (path : string) : unit =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (chrome_trace s))

(** Registered counters as a JSON object
    [{ "group.name": {"value": n, "desc": "..."} , ... }], sorted; zero
    counters included only with [~all:true]. *)
let counters_json ?(all = false) () : string =
  let cs = if all then counters () else nonzero_counters () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n  %s: {\"value\": %d, \"desc\": %s}"
           (Json.escape (c.group ^ "." ^ c.cname))
           c.value (Json.escape c.cdesc)))
    cs;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(** Counter rows [[group.name; value; description]] for {!Report.table}-style
    rendering, sorted by name; zero counters only with [~all:true]. *)
let counter_rows ?(all = false) () : string list list =
  let cs = if all then counters () else nonzero_counters () in
  List.map (fun c -> [ c.group ^ "." ^ c.cname; string_of_int c.value; c.cdesc ]) cs

(** Timing rows [[name; count; total ms; self ms]] for the [-time-passes]
    table. *)
let timing_rows (s : sink) : string list list =
  List.map
    (fun (name, n, total, self) ->
      [
        name;
        string_of_int n;
        Printf.sprintf "%.3f" (1000.0 *. total);
        Printf.sprintf "%.3f" (1000.0 *. self);
      ])
    (span_rows s)
