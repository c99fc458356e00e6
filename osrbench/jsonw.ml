(** JSON emitter for {!Telemetry.Json.t}.  Every artifact the benchmark
    writes goes through {!to_string}; {!write_checked} reads the file back
    with the in-tree reader to prove the round trip. *)

module J = Telemetry.Json

(* Integers print exactly; other floats with 17 significant digits, which
   read back bit-identical.  Non-finite numbers have no JSON form: they
   print as null, so a round trip over them fails loudly. *)
let number (f : float) : string =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec add (b : Buffer.t) (v : J.t) : unit =
  match v with
  | J.Null -> Buffer.add_string b "null"
  | J.Bool x -> Buffer.add_string b (string_of_bool x)
  | J.Num f -> Buffer.add_string b (number f)
  | J.Str s -> Buffer.add_string b (J.escape s)
  | J.Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | J.Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (J.escape k);
          Buffer.add_char b ':';
          add b x)
        kvs;
      Buffer.add_char b '}'

let to_string (v : J.t) : string =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b

let int (n : int) : J.t = J.Num (float_of_int n)
let read_file (path : string) : string = In_channel.with_open_text path In_channel.input_all

(** Write [v] to [path] and read it back: [true] iff it parses to [v]. *)
let write_checked (path : string) (v : J.t) : bool =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string v);
      Out_channel.output_char oc '\n');
  match J.parse (read_file path) with Ok v' -> v' = v | Error _ -> false
