(** Bench-side spans around the calls into each layer.  They land in a
    live {!Telemetry} sink next to the spans and counters the library
    already records (one span per pass, ["verify"], ["feasibility"],
    ["compile"]), and each bench span also records the [Gc] minor words
    allocated inside it.  The untraced path is {!off}: one branch per
    span. *)

type t = { sink : Telemetry.sink; minor : (string, float ref) Hashtbl.t }

let off : t = { sink = Telemetry.null; minor = Hashtbl.create 1 }
let create () : t = { sink = Telemetry.create (); minor = Hashtbl.create 16 }
let enabled (t : t) : bool = Telemetry.is_enabled t.sink

let span (t : t) (name : string) (f : unit -> 'a) : 'a =
  if not (Telemetry.is_enabled t.sink) then f ()
  else begin
    let w0 = Gc.minor_words () in
    let v = Telemetry.with_span t.sink ~cat:"bench" name f in
    let d = Gc.minor_words () -. w0 in
    (match Hashtbl.find_opt t.minor name with
    | Some c -> c := !c +. d
    | None -> Hashtbl.add t.minor name (ref d));
    v
  end

(** The layer a span belongs to: bench spans by the call they wrap,
    library spans by the module that records them. *)
let layer_of (span : string) : string =
  match span with
  | "to_fbase" -> "corpus"
  | "apply" | "CP" | "SCCP" | "CSE" | "LC" | "LCSSA" | "LICM" | "Sink" | "ADCE" | "verify" ->
      "passes"
  | "ctx" | "sweep_fwd" | "sweep_bwd" | "feasibility" | "contfun" | "fire" -> "osrir"
  | "create" | "compile" | "run_osr" | "run_armed" | "run_to_point" | "run_machine" -> "tinyvm"
  | "endangered" -> "debuginfo"
  | _ -> "other"

let layers = [ "corpus"; "passes"; "osrir"; "tinyvm"; "debuginfo"; "other" ]

(** Span aggregates summed over the traced cycles of a run.  [words] is
    only measured for bench spans; a library span's allocation is part of
    the bench span around it. *)
type row = { mutable calls : int; mutable total : float; mutable self : float; mutable words : float }

type agg = (string, row) Hashtbl.t

let absorb (agg : agg) (t : t) : unit =
  List.iter
    (fun (name, n, total, self) ->
      let r =
        match Hashtbl.find_opt agg name with
        | Some r -> r
        | None ->
            let r = { calls = 0; total = 0.; self = 0.; words = 0. } in
            Hashtbl.add agg name r;
            r
      in
      r.calls <- r.calls + n;
      r.total <- r.total +. total;
      r.self <- r.self +. self;
      r.words <- (r.words +. match Hashtbl.find_opt t.minor name with Some c -> !c | None -> 0.))
    (Telemetry.span_rows t.sink)

let row (agg : agg) (name : string) : row =
  match Hashtbl.find_opt agg name with
  | Some r -> r
  | None -> { calls = 0; total = 0.; self = 0.; words = 0. }

(** Span names in a stable order: largest self time first. *)
let names (agg : agg) : string list =
  Hashtbl.fold (fun name r acc -> (name, r.self) :: acc) agg []
  |> List.sort (fun (na, a) (nb, b) -> match compare b a with 0 -> compare na nb | c -> c)
  |> List.map fst
