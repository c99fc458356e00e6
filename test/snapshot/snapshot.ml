(** Digest snapshot of generated IR.  One line per function, [kind name
    digest], where the digest is the MD5 of the printed function:

    - [lower]: the raw alloca-form output of [Dsl.lower];
    - [fbase]: [Dsl.to_fbase] (lowering, then mem2reg);

    both for the 12 kernels and for a size-stratified sample of the
    [Spec_c] study functions (the middle function of each of 128 size
    strata, plus the largest);

    - [fwd] / [bwd]: the continuation functions of one kernel in one
      direction, at every feasible point in point order, one for each
      distinct plan the sweep reports there (the live plan, then the
      avail plan when it differs).  The line holds the number of
      continuations and the digest of their concatenated digests, each
      taken over the printed [f'to], its parameter sources and its
      live-in set.

    [snapshot.exe --points KERNEL] prints one line per continuation of
    that kernel instead, to find which point a changed line comes from. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir
module Contfun = Osrir.Contfun

let digest (s : string) : string = Digest.to_hex (Digest.string s)

(* The size-stratified sample of the debug study's inputs. *)
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
         (Printf.sprintf "%s#%d" bench i, k))

let front (name : string) (k : Corpus.Dsl.kernel) : unit =
  Printf.printf "lower %s %s\n" name (digest (Ir.func_to_string (fst (Corpus.Dsl.lower k))));
  Printf.printf "fbase %s %s\n" name (digest (Ir.func_to_string (fst (Corpus.Dsl.to_fbase k))))

(* The continuations of one direction, as (point, digest) in point order. *)
let continuations (ctx : Ctx.t) (target : Ir.func) : (int * string) list =
  List.concat_map
    (fun (r : F.point_report) ->
      let plans =
        match (r.F.classification, r.F.live_plan, r.F.avail_plan) with
        | F.Infeasible, _, _ -> []
        | _, Some lp, Some ap when lp <> ap -> [ lp; ap ]
        | _, Some p, _ | _, None, Some p -> [ p ]
        | _, None, None -> []
      in
      match r.F.landing with
      | None -> []
      | Some landing ->
          List.map
            (fun (plan : R.plan) ->
              let c = Contfun.generate target ~landing plan in
              ( r.F.point,
                digest
                  (Printf.sprintf "%s\nparams %s\nlive_in %s\n" (Ir.func_to_string c.Contfun.fto)
                     (String.concat ", " (List.map Ir.value_to_string c.Contfun.param_sources))
                     (String.concat ", " c.Contfun.live_in)) ))
            plans)
    (F.analyze ctx).F.reports

let kernel_continuations (k : Corpus.Dsl.kernel) : (string * (int * string) list) list =
  let r = P.apply (fst (Corpus.Dsl.to_fbase k)) in
  let fwd, bwd = Ctx.make_pair ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper () in
  [ ("fwd", continuations fwd r.P.fopt); ("bwd", continuations bwd r.P.fbase) ]

let () =
  let kernels = List.map (fun (e : Corpus.Kernels.entry) -> (e.benchmark, e.kernel)) Corpus.Kernels.all in
  match Sys.argv with
  | [| _; "--points"; name |] -> (
      match List.assoc_opt name kernels with
      | None ->
          prerr_endline ("snapshot: unknown kernel " ^ name);
          exit 2
      | Some k ->
          List.iter
            (fun (dir, conts) ->
              List.iter (fun (p, d) -> Printf.printf "%s %s %d %s\n" dir name p d) conts)
            (kernel_continuations k))
  | [| _ |] ->
      List.iter (fun (name, k) -> front name k) kernels;
      List.iter (fun (name, k) -> front name k) (spec_c_sample ());
      List.iter
        (fun (name, k) ->
          List.iter
            (fun (dir, conts) ->
              Printf.printf "%s %s %d %s\n" dir name (List.length conts)
                (digest (String.concat "" (List.map snd conts))))
            (kernel_continuations k))
        kernels
  | _ ->
      prerr_endline "usage: snapshot.exe [--points KERNEL]";
      exit 2
